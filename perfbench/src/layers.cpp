//===- layers.cpp - Per-layer probes of the traced run --------------------===//
//
// Times, from outside, the public entry points of each library module and
// reads the counters they expose. The first group runs on the graphs of
// the workload being traced: the compile pipeline decomposed into its
// stages (verify, passes, lower, exec), Session::compile and the fold,
// the artifact cache, and the primitives baseline. The second group is
// the same in every traced run: DLRM dispatch per batch bucket, kernel
// microbenchmarks on BERT and DLRM shapes, thread-pool fork/join and
// scaling, a short serving run and the loop-nest baseline.
//
//===----------------------------------------------------------------------===//

#include "common.h"

#include "baseline/loopnest.h"
#include "exec/program.h"
#include "kernels/brgemm.h"
#include "kernels/tile_ops.h"
#include "lower/blocking.h"
#include "lower/driver.h"
#include "passes/pass.h"
#include "runtime/thread_pool.h"
#include "verify/verify.h"
#include "workloads/bert.h"
#include "workloads/dlrm.h"
#include "workloads/mlp.h"

#include <cstring>

namespace perfbench {

namespace {

constexpr int kCompileReps = 3;

/// Median wall milliseconds of \p Reps calls of \p Fn after one warm-up.
template <typename Fn> double medianMs(int Reps, Fn &&F) {
  F();
  Samples S;
  for (int I = 0; I < Reps; ++I) {
    const double T0 = nowS();
    F();
    S.add((nowS() - T0) * 1e3);
  }
  return S.median();
}

void compilePipelineProbe(const Context &C,
                          const std::vector<NamedGraph> &Graphs, Result &R) {
  double Partitions = 0, Fallbacks = 0, Ops = 0, Reorders = 0, Instrs = 0,
         Merges = 0, Nests = 0, ArenaKb = 0, ArenaKbNoReuse = 0, FoldedMb = 0,
         Degraded = 0;
  std::vector<graph::Graph> Gs;
  std::vector<const graph::Graph *> GPtrs;
  std::vector<std::unique_ptr<Io>> Ios;
  std::vector<std::vector<runtime::TensorData>> Cold(Graphs.size());
  Rng InRng(C.Seed + 77);
  for (const NamedGraph &NG : Graphs) {
    Gs.push_back(NG.Build(NG.Batch));
    Ios.push_back(std::make_unique<Io>());
    makeIo(Gs.back(), InRng, *Ios.back());
  }
  for (const auto &G : Gs)
    GPtrs.push_back(&G);

  Tracer &T = tracer();
  const size_t From = T.mark();
  passes::PassOptions PO;
  PO.Threads = C.Threads;
  lower::DriverOptions DO;
  DO.Threads = C.Threads;

  for (int Rep = 0; Rep < kCompileReps; ++Rep) {
    for (size_t I = 0; I < Gs.size(); ++I) {
      const graph::Graph &G = Gs[I];
      {
        PB_SPAN("verify.graph");
        if (!verify::verifyGraph(G, "probe").isOk())
          R.Notes.push_back("verifyGraph rejected " + Graphs[I].Name);
      }
      graph::Graph Opt = G.clone();
      {
        PB_SPAN("passes.run");
        passes::PassManager PM(PO);
        for (auto &P : passes::buildStandardPipeline(PO))
          PM.addPass(std::move(P));
        if (!PM.run(Opt).isOk())
          R.Notes.push_back("PassManager::run failed on " + Graphs[I].Name);
      }
      auto LowerOnce = [&] {
        PB_SPAN("lower.run");
        return lower::lowerGraph(Opt, DO);
      };
      Expected<lower::LoweredProgram> Low = LowerOnce();
      if (Low) {
        PB_SPAN("exec.compile");
        std::shared_ptr<const exec::Program> P =
            exec::compileProgram(Low->Entry);
        if (Rep == 0)
          Instrs += double(P->Code.size());
      }

      api::Session S(compileOptions(C.Threads, runtime::CacheMode::Off));
      api::CompiledGraphPtr CG;
      {
        PB_SPAN("api.compile");
        auto CGOr = S.compile(G);
        if (CGOr)
          CG = CGOr.takeValue();
      }
      if (!CG) {
        R.Notes.push_back("Session::compile failed on " + Graphs[I].Name);
        continue;
      }
      {
        PB_SPAN("runtime.fold");
        foldAll(*CG);
      }
      Degraded += double(degradations(S));
      if (Rep != 0)
        continue;
      Partitions += double(CG->numPartitions());
      Fallbacks += double(CG->numFallbackPartitions());
      for (size_t P = 0; P < CG->numPartitions(); ++P) {
        auto Part = CG->compiledPartition(P);
        if (!Part)
          continue;
        const graph::Graph &OG = Part->optimizedGraph();
        Ops += double(OG.numOps());
        for (int64_t Id : OG.opIds())
          Reorders += OG.op(Id).kind() == graph::OpKind::Reorder;
        const core::PartitionStats St = Part->stats();
        Merges += St.CoarseGrainMerges;
        Nests += St.ParallelNests;
        ArenaKb += double(St.ScratchArenaBytes) / 1024.0;
        ArenaKbNoReuse += double(St.ScratchArenaBytesNoReuse) / 1024.0;
        FoldedMb += double(St.FoldedBytes) / (1024.0 * 1024.0);
      }
      Io &X = *Ios[I];
      if (S.stream().execute(*CG, X.InP, X.OutP).isOk())
        for (const auto &T : X.Out)
          Cold[I].push_back(T.clone());
    }
  }
  const double Reps = kCompileReps;
  R.add("api.compile_ms", T.sumMs("api.compile", From) / Reps, "ms",
        kCompileReps);
  R.add("api.partitions", Partitions, "count");
  R.add("api.fallback_partitions", Fallbacks, "count");
  R.add("passes.ms", T.sumMs("passes.run", From) / Reps, "ms", kCompileReps);
  R.add("passes.ops", Ops, "count");
  R.add("passes.reorders", Reorders, "count");
  R.add("lower.ms", T.sumMs("lower.run", From) / Reps, "ms", kCompileReps);
  R.add("exec.compile_ms", T.sumMs("exec.compile", From) / Reps, "ms",
        kCompileReps);
  R.add("exec.instrs", Instrs, "count");
  R.add("verify.ms", T.sumMs("verify.graph", From) / Reps, "ms", kCompileReps,
        "level graph");
  R.add("tirpass.coarse_merges", Merges, "count");
  R.add("tirpass.parallel_nests", Nests, "count");
  R.add("tirpass.arena_kb", ArenaKb, "KiB");
  R.add("tirpass.arena_kb_no_reuse", ArenaKbNoReuse, "KiB");
  R.add("runtime.fold_ms", T.sumMs("runtime.fold", From) / Reps, "ms",
        kCompileReps);
  R.add("runtime.folded_mb", FoldedMb, "MB");

  // Artifact cache on the same graphs; loaded outputs must equal the cold
  // compile's bit for bit.
  LoadStats LS;
  storeAll(C, GPtrs, C.TmpDir + "/probe-cache", LS);
  loadAll(
      C, GPtrs, C.TmpDir + "/probe-cache", 1,
      [&](size_t I, api::Session &S, const api::CompiledGraph &CG) {
        return executesTo(S, CG, Gs[I], Ios[I]->InP, Cold[I]);
      },
      LS);
  if (LS.Failed)
    R.Notes.push_back("probe cache: " + std::to_string(LS.Failed) +
                      " store/load operations failed");
  R.add("runtime.cache_store_ms", T.sumMs("runtime.cache_store", From), "ms",
        T.count("runtime.cache_store", From));
  R.add("runtime.cache_load_ms", T.sumMs("runtime.cache_load", From), "ms",
        T.count("runtime.cache_load", From));
  R.add("runtime.cache_hits", double(LS.DiskHits), "count");

  // The same graphs under the primitives + post-op baseline.
  double PrimMs = 0;
  for (size_t I = 0; I < Gs.size(); ++I) {
    core::CompileOptions O = core::primitivesBaselineOptions(C.Threads);
    O.CacheMode = runtime::CacheMode::Off;
    O.Exec = exec::Backend::Bytecode;
    O.SplitIndependentPartitions = false;
    O.AsyncExec = false;
    api::Session S(O);
    auto CG = S.compile(Gs[I]);
    if (!CG)
      continue;
    Degraded += double(degradations(S));
    Io &X = *Ios[I];
    api::Stream Str = S.stream();
    PrimMs += medianMs(3, [&] {
      PB_SPAN("baseline.primitives_execute");
      (void)Str.execute(**CG, X.InP, X.OutP);
    });
  }
  R.add("baseline.primitives_ms", PrimMs, "ms", 3);
  R.add("api.degradations", Degraded, "count");
}

void dlrmDispatchProbe(const Context &C, Result &R) {
  const int64_t Buckets[] = {1, 4, 16};
  double WarmUs[3] = {0, 0, 0};
  Samples SpecMs;
  Rng InRng(C.Seed + 5);
  for (int K = 0; K < 2; ++K) {
    const workloads::MlpSpec Spec =
        K == 0 ? workloads::dlrmBottomSpec(graph::LogicalTensor::kDynamicDim,
                                           true)
               : workloads::dlrmTopSpec(graph::LogicalTensor::kDynamicDim,
                                        true);
    api::Session S(compileOptions(C.Threads, runtime::CacheMode::Off));
    auto CG = S.compile(workloads::buildMlp(Spec));
    if (!CG) {
      R.Notes.push_back("dlrm dispatch probe: compile failed");
      continue;
    }
    api::Stream Str = S.stream();
    for (int B = 0; B < 3; ++B) {
      runtime::TensorData In(DataType::U8,
                             {Buckets[B], Spec.LayerDims.front()});
      runtime::TensorData Out(DataType::U8,
                              {Buckets[B], Spec.LayerDims.back()});
      In.fillRandom(InRng);
      double First = 0;
      {
        PB_SPAN("api.execute_first_bucket");
        const double T0 = nowS();
        (void)Str.execute(**CG, {&In}, {&Out});
        First = (nowS() - T0) * 1e3;
      }
      Samples Warm;
      for (int I = 0; I < 300; ++I) {
        PB_SPAN("api.execute");
        const double T0 = nowS();
        (void)Str.execute(**CG, {&In}, {&Out});
        Warm.add((nowS() - T0) * 1e6);
      }
      WarmUs[B] += Warm.median();
      SpecMs.add(First - Warm.median() * 1e-3);
    }
  }
  R.add("api.exec_us.b1", WarmUs[0], "us", 300);
  R.add("api.exec_us.b4", WarmUs[1], "us", 300);
  R.add("api.exec_us.b16", WarmUs[2], "us", 300);
  R.add("api.spec_compile_ms", SpecMs.mean(), "ms", SpecMs.size());
}

void runtimeProbe(const Context &C, Result &R) {
  {
    runtime::ThreadPool Pool(C.Threads);
    auto Empty = [](int64_t, int) {};
    for (int I = 0; I < 200; ++I)
      Pool.parallelFor(0, Pool.numThreads(), Empty);
    Samples S;
    for (int I = 0; I < 3000; ++I) {
      const double T0 = nowS();
      Pool.parallelFor(0, Pool.numThreads(), Empty);
      S.add((nowS() - T0) * 1e6);
    }
    R.add("runtime.fork_join_us", S.median(), "us", S.size());
  }

  // BERT layer at one thread over all threads.
  graph::Graph G = bertGraphs()[0].Build(bertGraphs()[0].Batch);
  Rng InRng(C.Seed + 9);
  Io X;
  makeIo(G, InRng, X);
  double Ms[2] = {0, 0};
  const int Threads[2] = {1, C.Threads};
  for (int I = 0; I < 2; ++I) {
    api::Session S(compileOptions(Threads[I], runtime::CacheMode::Off));
    auto CG = S.compile(G);
    if (!CG)
      continue;
    api::Stream Str = S.stream();
    Ms[I] = medianMs(2, [&] {
      PB_SPAN("api.execute_scaling");
      (void)Str.execute(**CG, X.InP, X.OutP);
    });
  }
  R.add("runtime.scaling_x", Ms[1] > 0 ? Ms[0] / Ms[1] : 0, "x", 2,
        "threads " + std::to_string(C.Threads));
}

void kernelProbe(const Context &C, Result &R) {
  Rng Fill(C.Seed + 3);
  // f32 brgemm on BERT's GEMM shapes (M = batch 8 x seq 128) at the
  // blocking the lowering would choose.
  {
    const int64_t Shapes[3][2] = {{1024, 1024}, {1024, 4096}, {4096, 1024}};
    double Flops = 0, Secs = 0;
    for (const auto &KN : Shapes) {
      lower::MatmulShape Sh;
      Sh.M = 1024;
      Sh.K = KN[0];
      Sh.N = KN[1];
      const lower::BlockingParams B =
          lower::chooseMatmulBlocking(Sh, C.Threads);
      runtime::TensorData A(DataType::F32, {B.BS * B.MB * B.KB});
      runtime::TensorData Bm(DataType::F32, {B.BS * B.KB * B.NB});
      runtime::TensorData Cm(DataType::F32, {B.MB * B.NB});
      A.fillRandom(Fill);
      Bm.fillRandom(Fill);
      kernels::BrgemmF32Args Args;
      Args.A = A.dataAs<float>();
      Args.AStrideBatch = B.MB * B.KB;
      Args.Lda = B.KB;
      Args.B = Bm.dataAs<float>();
      Args.BStrideBatch = B.KB * B.NB;
      Args.Ldb = B.NB;
      Args.C = Cm.dataAs<float>();
      Args.Ldc = B.NB;
      Args.M = B.MB;
      Args.N = B.NB;
      Args.K = B.KB;
      Args.Batch = B.BS;
      PB_SPAN("kernels.brgemm_f32");
      const double T0 = nowS();
      int64_t Calls = 0;
      while (nowS() - T0 < 0.15) {
        for (int I = 0; I < 64; ++I)
          kernels::brgemmF32(Args);
        Calls += 64;
      }
      Secs += nowS() - T0;
      Flops += 2.0 * double(B.MB * B.NB * B.KB * B.BS) * double(Calls);
    }
    R.add("kernels.brgemm_f32_gflops", Flops / Secs * 1e-9, "GFLOP/s", 3,
          "1 thread");
  }
  // u8s8 brgemm on every DLRM layer at a small-M query of 8 rows.
  {
    std::vector<int64_t> Dims[2] = {workloads::mlp1Dims(),
                                    workloads::mlp2Dims()};
    const int64_t M = 8;
    double Ops = 0, Secs = 0;
    for (const auto &D : Dims) {
      for (size_t L = 0; L + 1 < D.size(); ++L) {
        const int64_t K = (D[L] + 3) / 4 * 4, N = D[L + 1];
        const int64_t NPad = (N + 15) / 16 * 16;
        runtime::TensorData A(DataType::U8, {M * K});
        runtime::TensorData Bm(DataType::S8, {K * NPad});
        runtime::TensorData Cm(DataType::S32, {M * NPad});
        A.fillRandom(Fill);
        Bm.fillRandom(Fill);
        kernels::BrgemmU8S8Args Args;
        Args.A = A.dataAs<uint8_t>();
        Args.Lda = K;
        Args.B = Bm.dataAs<int8_t>();
        Args.NPadded = NPad;
        Args.C = Cm.dataAs<int32_t>();
        Args.Ldc = NPad;
        Args.M = M;
        Args.N = N;
        Args.K = K;
        PB_SPAN("kernels.brgemm_u8s8");
        const double T0 = nowS();
        int64_t Calls = 0;
        while (nowS() - T0 < 0.03) {
          for (int I = 0; I < 16; ++I)
            kernels::brgemmU8S8(Args);
          Calls += 16;
        }
        Secs += nowS() - T0;
        Ops += 2.0 * double(M * N * K) * double(Calls);
      }
    }
    R.add("kernels.brgemm_u8s8_gops", Ops / Secs * 1e-9, "GOP/s", 8,
          "1 thread, M=8");
  }
  // exp + row sum over the attention scores, GELU over the FFN
  // activation, on one thread.
  {
    const int64_t Heads = 8 * 16, S = 128, Rows = 1024, Ffn = 4096;
    runtime::TensorData Scores(DataType::F32, {Heads * S * S});
    runtime::TensorData Act(DataType::F32, {Rows * Ffn});
    runtime::TensorData Sums(DataType::F32, {S});
    Scores.fillRandom(Fill);
    Act.fillRandom(Fill);
    const runtime::TensorData Scores0 = Scores.clone(), Act0 = Act.clone();
    Samples Ms;
    for (int Rep = 0; Rep < 7; ++Rep) {
      std::memcpy(Scores.data(), Scores0.data(), size_t(Scores.numBytes()));
      std::memcpy(Act.data(), Act0.data(), size_t(Act.numBytes()));
      PB_SPAN("kernels.tile_ops");
      const double T0 = nowS();
      for (int64_t H = 0; H < Heads; ++H) {
        kernels::TileF32 T{Scores.dataAs<float>() + H * S * S, S, S, S};
        kernels::expTile(T);
        kernels::reduceSumRowsTile(T, Sums.dataAs<float>(), false);
      }
      for (int64_t Row = 0; Row < Rows; Row += 32)
        kernels::geluTanhTile(
            kernels::TileF32{Act.dataAs<float>() + Row * Ffn, 32, Ffn, Ffn});
      Ms.add((nowS() - T0) * 1e3);
    }
    R.add("kernels.tile_ops_ms", Ms.median(), "ms", Ms.size(), "1 thread");
  }
  // BERT's dense projections as single-matmul graphs (the Fig. 7 method):
  // Q, K, V and the output projection are 1024x1024, then FFN up and down.
  {
    const int64_t KN[3][3] = {
        {1024, 1024, 4}, {1024, 4096, 1}, {4096, 1024, 1}};
    double Sum = 0;
    for (const auto &Sh : KN) {
      graph::Graph G =
          workloads::buildSingleMatmul(1024, Sh[0], Sh[1], false, 7);
      api::Session S(compileOptions(C.Threads, runtime::CacheMode::Off));
      auto CG = S.compile(G);
      if (!CG)
        continue;
      Io X;
      makeIo(G, Fill, X);
      api::Stream Str = S.stream();
      Sum += double(Sh[2]) * medianMs(5, [&] {
        PB_SPAN("kernels.dense_matmul_execute");
        (void)Str.execute(**CG, X.InP, X.OutP);
      });
    }
    R.add("kernels.dense_matmul_ms", Sum, "ms", 5);
  }
}

void loopNestProbe(const Context &C, Result &R) {
  double Sum = 0;
  Rng InRng(C.Seed + 13);
  for (int K = 0; K < 2; ++K) {
    graph::Graph G = workloads::buildMlp(
        K == 0 ? workloads::dlrmBottomSpec(32, true)
               : workloads::dlrmTopSpec(32, true));
    baseline::LoopNestExecutor Exec(G, C.Threads);
    Io X;
    makeIo(G, InRng, X);
    Sum += medianMs(5, [&] {
      PB_SPAN("baseline.loopnest_execute");
      Exec.execute(X.InP, X.OutP);
    });
  }
  R.add("baseline.loopnest_ms", Sum, "ms", 5, "DLRM int8 b32");
}

/// Share of \p G's outputs outside tolerance against the reference
/// interpreter, on inputs seeded by \p Name (1 when it does not run).
double mismatchFrac(const Context &C, const graph::Graph &G,
                    const std::string &Name) {
  api::Session S(compileOptions(C.Threads, runtime::CacheMode::Off));
  auto CG = S.compile(G);
  Rng InRng = inputRng(C.Seed, Name);
  Io X;
  makeIo(G, InRng, X);
  if (!CG || !S.stream().execute(**CG, X.InP, X.OutP).isOk())
    return 1;
  const Check K =
      compareTolerance(X.Out[0], referenceOutputs(G, X.In, C.WorkDir)[0]);
  return double(K.Bad) / double(X.Out[0].numElements());
}

/// The two known disagreements of the default pipeline with the reference
/// interpreter (README.md): BERT-L Int8 on one sequence, which
/// compile_table1 leaves out while it is nonzero, and the int8 DLRM bottom
/// MLP (the MLP-1 drift) on 512 rows.
void oracleProbe(const Context &C, Result &R) {
  workloads::BertLayerSpec Spec;
  Spec.Batch = 1;
  Spec.Int8 = true;
  R.add("api.bert_i8_mismatch_frac",
        mismatchFrac(C, workloads::buildBertLayer(Spec), "bert_l_i8"),
        "ratio");
  R.add("api.mlp1_i8_mismatch_frac",
        mismatchFrac(C,
                     workloads::buildMlp(workloads::dlrmBottomSpec(512, true)),
                     "dlrm_bottom_i8_b512"),
        "ratio");
}

} // namespace

void runLayerProbes(const Context &C, const std::vector<NamedGraph> &Graphs,
                    Result &R) {
  tracer().setEnabled(true);
  compilePipelineProbe(C, Graphs, R);
  dlrmDispatchProbe(C, R);
  runtimeProbe(C, R);
  kernelProbe(C, R);
  runServeProbe(C, 2.0, R);
  loopNestProbe(C, R);
  oracleProbe(C, R);
  tracer().setEnabled(false);
}

} // namespace perfbench
