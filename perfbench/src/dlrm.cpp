//===- dlrm.cpp - Workload dlrm_top_int8 and the serving probe ------------===//
//
// dlrm_top_int8: the batch-polymorphic int8 DLRM top MLP
// (479-1024-1024-512-256-1), compiled by one Session with a pool of all
// hardware threads. Closed loop with a single caller: one operation is one
// query of 1-16 seeded rows through api::Stream::execute. The bottom MLP
// (13-512-256-128) is left out: its int8 outputs drift from the reference
// on some seeds (README.md).
//
// The serving probe of the traced run puts both int8 models behind a
// serve::Server and sends them open-loop Poisson queries from one
// generator thread; a query's latency runs from its scheduled send time
// until both tickets are answered.
//
//===----------------------------------------------------------------------===//

#include "common.h"

#include "serve/server.h"
#include "workloads/dlrm.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <memory>
#include <thread>

namespace perfbench {

namespace {

constexpr int kSetups = 11;
/// The timed loop runs in kRounds rounds. Each round ends with
/// kLoads / kRounds warm-cache loads and has its own tail, so that a short
/// host stall moves one round, not the load or tail metric.
constexpr int kRounds = 10;
constexpr int kLoads = 50;
/// Rows per model in the seeded input pool; queries take row windows.
constexpr int64_t kPoolRows = 64;
constexpr int64_t kMaxRows = 16;
/// Offered rate of the serving probe (queries/s).
constexpr double kServeRate = 1000;
/// The serving probe stops sending when this many queries are unanswered.
constexpr uint64_t kMaxOutstanding = 256;

constexpr int kBottom = 0, kTop = 1;

graph::Graph dlrmModel(int Which, int64_t Batch) {
  return workloads::buildMlp(Which == kBottom
                                 ? workloads::dlrmBottomSpec(Batch, true)
                                 : workloads::dlrmTopSpec(Batch, true));
}

struct Model {
  int64_t InDim = 0, OutDim = 0;
  runtime::TensorData Pool; ///< [kPoolRows, InDim] u8
  runtime::TensorData Ref;  ///< reference outputs of Pool
  serve::ModelId Id = 0;    ///< serving probe only
};

runtime::TensorData poolRows(const Model &M, int64_t Off, int64_t Rows) {
  return runtime::TensorData::view(
      DataType::U8, {Rows, M.InDim},
      const_cast<uint8_t *>(M.Pool.dataAs<uint8_t>() + Off * M.InDim));
}

runtime::TensorData outputFor(const Model &M, int64_t Rows) {
  return runtime::TensorData(DataType::U8, {Rows, M.OutDim});
}

bool checkRows(const Model &M, const runtime::TensorData &Out, int64_t Off,
               int64_t Rows) {
  return compareTolerance(Out, sliceRows(M.Ref, Off, Rows)).Ok;
}

/// Seeded input pool of model \p Which and its reference outputs.
Model prepareModel(const Context &C, int Which) {
  Model M;
  Rng R(C.Seed * 0x9e3779b97f4a7c15ULL + 23 + uint64_t(Which));
  const graph::Graph G = dlrmModel(Which, kPoolRows);
  M.InDim = G.tensor(G.inputs()[0]).Shape[1];
  M.OutDim = G.tensor(G.outputs()[0]).Shape[1];
  M.Pool = runtime::TensorData(DataType::U8, {kPoolRows, M.InDim});
  M.Pool.fillRandom(R);
  M.Ref = referenceOutputs(G, {M.Pool}, C.WorkDir)[0];
  return M;
}

//===----------------------------------------------------------------------===//
// Serving probe
//===----------------------------------------------------------------------===//

/// Builds a server, loads both int8 models and warms every bucket a
/// coalesced batch can reach.
std::unique_ptr<serve::Server> setupServer(const Context &C, Model (&M)[2]) {
  serve::ServerOptions SO;
  SO.MaxBatch = 32;
  SO.LingerUs = 200;
  SO.QueueCap = 1024;
  SO.Workers = 2;
  // The pool leaves one hardware thread to the load generator and the
  // reaper, which would otherwise wait behind spinning pool workers and
  // send late.
  auto Srv = std::make_unique<serve::Server>(
      SO, compileOptions(std::max(1, C.Threads - 1),
                         runtime::CacheMode::Off));
  for (int K = 0; K < 2; ++K) {
    auto Id = Srv->load(dlrmModel(K, graph::LogicalTensor::kDynamicDim));
    if (!Id) {
      std::fprintf(stderr, "dlrm: load failed: %s\n",
                   Id.status().toString().c_str());
      std::exit(1);
    }
    M[K].Id = *Id;
  }
  for (int64_t Rows = 1; Rows <= SO.MaxBatch; Rows *= 2)
    for (int K = 0; K < 2; ++K) {
      runtime::TensorData In = poolRows(M[K], 0, Rows);
      runtime::TensorData Out = outputFor(M[K], Rows);
      if (auto T = Srv->submit(M[K].Id, {&In}, {&Out}))
        (void)T->wait();
    }
  return Srv;
}

struct Query {
  int64_t Rows = 0, Off = 0;
  double Due = 0;
  bool Admitted = true;
  serve::Ticket T[2];
  /// The server keeps pointers to these until the tickets complete.
  runtime::TensorData In[2], Out[2];
};

struct Rung {
  Samples LatMs;    ///< answered and correct queries
  Samples GenLagUs; ///< how late each send was
  uint64_t Sent = 0, Failed = 0;
};

/// Open-loop Poisson arrivals at \p Rate for \p Seconds.
Rung runRung(serve::Server &Srv, const Model (&M)[2], double Rate,
             double Seconds, uint64_t Seed) {
  Rung G;
  Rng R(Seed);
  std::mutex Mu; // guards Pending, GenDone
  std::condition_variable Cv;
  std::deque<std::unique_ptr<Query>> Pending;
  bool GenDone = false;
  std::atomic<uint64_t> Outstanding{0};

  std::thread Reaper([&] {
    for (;;) {
      std::unique_ptr<Query> Q;
      {
        std::unique_lock<std::mutex> Lock(Mu);
        Cv.wait(Lock, [&] { return !Pending.empty() || GenDone; });
        if (Pending.empty())
          return;
        Q = std::move(Pending.front());
        Pending.pop_front();
      }
      bool Ok = Q->Admitted;
      for (int K = 0; K < 2; ++K)
        if (Q->T[K].valid() && !Q->T[K].wait().isOk())
          Ok = false;
      const double LatMs = (nowS() - Q->Due) * 1e3;
      for (int K = 0; Ok && K < 2; ++K)
        Ok = checkRows(M[K], Q->Out[K], Q->Off, Q->Rows);
      if (Ok)
        G.LatMs.add(LatMs);
      else
        ++G.Failed;
      Outstanding.fetch_sub(1);
    }
  });

  const double Start = nowS();
  double Due = Start;
  for (;;) {
    const double U = double(R.next() >> 11) * 0x1.0p-53;
    Due += -std::log1p(-U) / Rate;
    if (Due - Start >= Seconds || Outstanding.load() >= kMaxOutstanding)
      break;
    auto Q = std::make_unique<Query>();
    Q->Rows = R.uniformInt(1, kMaxRows);
    Q->Off = R.uniformInt(0, kPoolRows - Q->Rows);
    Q->Due = Due;
    const double Wait = Due - nowS();
    if (Wait > 0)
      std::this_thread::sleep_for(std::chrono::duration<double>(Wait));
    G.GenLagUs.add((nowS() - Due) * 1e6);
    {
      PB_SPAN("serve.submit");
      for (int K = 0; K < 2; ++K) {
        Q->Out[K] = outputFor(M[K], Q->Rows);
        Q->In[K] = poolRows(M[K], Q->Off, Q->Rows);
        auto T = Srv.submit(M[K].Id, {&Q->In[K]}, {&Q->Out[K]});
        if (T)
          Q->T[K] = T.takeValue();
        else
          Q->Admitted = false;
      }
    }
    ++G.Sent;
    Outstanding.fetch_add(1);
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Pending.push_back(std::move(Q));
    }
    Cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> Lock(Mu);
    GenDone = true;
  }
  Cv.notify_all();
  Reaper.join();
  return G;
}

} // namespace

std::vector<NamedGraph> dlrmGraphs() {
  return {{"dlrm_top_i8_b16", [](int64_t B) { return dlrmModel(kTop, B); },
           kMaxRows}};
}

void runServeProbe(const Context &C, double Seconds, Result &R) {
  Model M[2] = {prepareModel(C, kBottom), prepareModel(C, kTop)};
  std::unique_ptr<serve::Server> Srv = setupServer(C, M);
  const serve::ServerStats Before = Srv->stats();
  const Rung G = runRung(*Srv, M, kServeRate, Seconds, C.Seed + 1000);
  const serve::ServerStats After = Srv->stats();
  const double Batches = double(After.Batches - Before.Batches);
  R.add("serve.avg_fill",
        Batches > 0 ? double(After.BatchedRows - Before.BatchedRows) / Batches
                    : 0,
        "rows", size_t(Batches));
  R.add("serve.linger_flush_frac",
        Batches > 0 ? double(After.LingerFlushes - Before.LingerFlushes) /
                          Batches
                    : 0,
        "ratio", size_t(Batches));
  R.add("serve.server_p99_us", After.P99Us, "us", After.LatencyCount);
  R.add("serve.rejected",
        double(After.RejectedQueueFull + After.RejectedDeadline), "count");
  R.add("serve.gen_lag_us", G.GenLagUs.percentile(99), "us",
        G.GenLagUs.size(), "p99");
  char Buf[200];
  std::snprintf(Buf, sizeof Buf,
                "serve probe rate=%.0f sent=%llu failed=%llu p50_ms=%.3f "
                "p99_ms=%.3f",
                kServeRate, (unsigned long long)G.Sent,
                (unsigned long long)G.Failed, G.LatMs.median(),
                G.LatMs.percentile(99));
  R.Notes.push_back(Buf);
}

Result runDlrm(const Context &C) {
  Result R;
  const Model M = prepareModel(C, kTop);

  // Set-up, repeated: session, compile, and one query of every bucket
  // 1-16 (specialization and fold). The last one is kept.
  Samples Setup;
  std::unique_ptr<api::Session> S;
  api::CompiledGraphPtr CG;
  for (int I = 0; I < kSetups; ++I) {
    CG.reset();
    S.reset();
    releaseFreedMemory();
    const double T0 = nowS();
    S = std::make_unique<api::Session>(
        compileOptions(C.Threads, runtime::CacheMode::Off));
    auto CGOr = S->compile(dlrmModel(kTop, graph::LogicalTensor::kDynamicDim));
    if (!CGOr) {
      std::fprintf(stderr, "dlrm: compile failed: %s\n",
                   CGOr.status().toString().c_str());
      std::exit(1);
    }
    CG = CGOr.takeValue();
    api::Stream Str = S->stream();
    for (int64_t Rows = 1; Rows <= kMaxRows; Rows *= 2) {
      ++R.Attempted;
      runtime::TensorData In = poolRows(M, 0, Rows);
      runtime::TensorData Out = outputFor(M, Rows);
      if (!Str.execute(*CG, {&In}, {&Out}).isOk() ||
          !checkRows(M, Out, 0, Rows))
        ++R.Failed;
    }
    Setup.add(nowS() - T0);
  }
  R.Notes.push_back(firstTimedOpNote());
  R.PoolThreads = S->threadPool().numThreads();

  // Cold start of the static bucket-16 model from a warm artifact cache.
  const graph::Graph Static = dlrmGraphs()[0].Build(kMaxRows);
  const std::string CacheDir = C.TmpDir + "/dlrm";
  LoadStats LS;
  storeAll(C, {&Static}, CacheDir, LS);
  auto LoadRound = [&] {
    loadAll(
        C, {&Static}, CacheDir, kLoads / kRounds,
        [&](size_t, api::Session &LoadS, const api::CompiledGraph &Loaded) {
          runtime::TensorData In = poolRows(M, 0, kMaxRows);
          runtime::TensorData Out = outputFor(M, kMaxRows);
          return LoadS.stream().execute(Loaded, {&In}, {&Out}).isOk() &&
                 checkRows(M, Out, 0, kMaxRows);
        },
        LS);
  };

  api::Stream Str = S->stream();
  Rng Q(C.Seed * 31 + 7);
  Samples RoundTails;
  int TailP = 99;
  auto TimedLoop = [&](double Seconds, Samples &Lat) {
    for (int Round = 0; Round < kRounds; ++Round) {
      Samples RoundLat;
      const double Start = nowS();
      do {
        const int64_t Rows = Q.uniformInt(1, kMaxRows);
        const int64_t Off = Q.uniformInt(0, kPoolRows - Rows);
        runtime::TensorData In = poolRows(M, Off, Rows);
        runtime::TensorData Out = outputFor(M, Rows);
        ++R.Attempted;
        Status St = Status::ok();
        const double T0 = nowS();
        {
          PB_SPAN("api.execute");
          St = Str.execute(*CG, {&In}, {&Out});
        }
        RoundLat.add((nowS() - T0) * 1e3);
        if (!St.isOk() || !checkRows(M, Out, Off, Rows))
          ++R.Failed;
      } while (nowS() - Start < Seconds / kRounds);
      Lat.V.insert(Lat.V.end(), RoundLat.V.begin(), RoundLat.V.end());
      RoundTails.add(RoundLat.tail());
      TailP = std::min(TailP, RoundLat.tailPercentile());
      LoadRound();
    }
  };

  Samples Lat, LatTraced;
  if (!C.Trace) {
    TimedLoop(C.Seconds, Lat);
  } else {
    TimedLoop(C.Seconds / 2, Lat);
    tracer().setEnabled(true);
    TimedLoop(C.Seconds / 2, LatTraced);
    tracer().setEnabled(false);
  }
  R.Failed += degradations(*S);
  CG.reset();
  S.reset();

  R.Attempted += LS.Attempted;
  R.Failed += LS.Failed;
  const double Rss = peakRssMb();
  R.Correct = R.Failed == 0;

  if (C.Trace) {
    R.add("trace.overhead_pct",
          100.0 * (LatTraced.median() - Lat.median()) / Lat.median(), "%",
          LatTraced.size());
    runLayerProbes(C, dlrmGraphs(), R);
    return R;
  }
  R.add("setup_s", Setup.median(), "s", Setup.size());
  R.add("peak_rss_mb", Rss, "MB");
  R.add("op_ms_p50", Lat.median(), "ms", Lat.size());
  R.add("op_ms_tail", RoundTails.median(), "ms", Lat.size(),
        "median over " + std::to_string(kRounds) + " rounds of p" +
            std::to_string(TailP));
  R.add("load_ms_p50", LS.LoadMs[0].median(), "ms", LS.LoadMs[0].size());
  return R;
}

} // namespace perfbench
