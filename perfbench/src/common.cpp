//===- common.cpp - Shared harness of the perfbench benchmark -------------===//

#include "common.h"

#include "graph/reference.h"
#include "support/serial.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <malloc.h>
#include <memory>
#include <thread>
#include <unistd.h>

namespace perfbench {

//===----------------------------------------------------------------------===//
// Time and statistics
//===----------------------------------------------------------------------===//

namespace {
const std::chrono::steady_clock::time_point kProcessStart =
    std::chrono::steady_clock::now();

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - kProcessStart)
      .count();
}
} // namespace

double nowS() { return double(nowNs()) * 1e-9; }

double Samples::median() const { return percentile(50); }

double Samples::mean() const {
  if (V.empty())
    return 0;
  double S = 0;
  for (double X : V)
    S += X;
  return S / double(V.size());
}

double Samples::percentile(double P) const {
  if (V.empty())
    return 0;
  std::vector<double> S = V;
  std::sort(S.begin(), S.end());
  if (P == 50 && S.size() % 2 == 0)
    return 0.5 * (S[S.size() / 2 - 1] + S[S.size() / 2]);
  const double Rank = std::ceil(P / 100.0 * double(S.size()));
  const size_t Idx = Rank < 1 ? 0 : size_t(Rank) - 1;
  return S[std::min(Idx, S.size() - 1)];
}

int Samples::tailPercentile() const {
  const double N = double(V.size());
  if (N < 11)
    return 0;
  return std::min(99, int(std::floor(100.0 * (N - 10.0) / N)));
}

double Samples::tail() const {
  const int P = tailPercentile();
  return percentile(P == 0 ? 100 : P);
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double L = 0;
  for (double X : V)
    L += std::log(X);
  return std::exp(L / double(V.size()));
}

namespace {
double statusField(const char *Key) {
  std::ifstream F("/proc/self/status");
  std::string Line;
  const size_t Len = std::strlen(Key);
  while (std::getline(F, Line))
    if (Line.compare(0, Len, Key) == 0)
      return std::stod(Line.substr(Len));
  return 0;
}
} // namespace

double peakRssMb() { return statusField("VmHWM:") / 1024.0; }

void releaseFreedMemory() { ::malloc_trim(0); }

int processThreads() { return int(statusField("Threads:")); }

std::string firstTimedOpNote() {
  return "first_timed_op_s=" + std::to_string(nowS()) +
         " threads_alive=" + std::to_string(processThreads());
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

namespace {
thread_local int32_t CurrentSpan = -1;

uint32_t threadTag() {
  static std::atomic<uint32_t> Next{0};
  thread_local uint32_t Tag = Next.fetch_add(1);
  return Tag;
}
} // namespace

Tracer &tracer() {
  static Tracer T;
  return T;
}

Tracer::Scope::Scope(Tracer &Tr, const char *Name) {
  if (!Tr.enabled())
    return;
  T = &Tr;
  SavedParent = CurrentSpan;
  std::lock_guard<std::mutex> Lock(Tr.M);
  Id = int32_t(Tr.Spans.size());
  Tr.Spans.push_back({Name, nowNs(), -1, SavedParent, threadTag()});
  CurrentSpan = Id;
}

Tracer::Scope::~Scope() {
  if (!T)
    return;
  const int64_t End = nowNs();
  CurrentSpan = SavedParent;
  std::lock_guard<std::mutex> Lock(T->M);
  T->Spans[size_t(Id)].EndNs = End;
}

size_t Tracer::mark() const {
  std::lock_guard<std::mutex> Lock(M);
  return Spans.size();
}

std::vector<double> Tracer::durationsMs(const std::string &Name,
                                        size_t From) const {
  std::lock_guard<std::mutex> Lock(M);
  std::vector<double> D;
  for (size_t I = From; I < Spans.size(); ++I)
    if (Spans[I].EndNs >= 0 && Name == Spans[I].Name)
      D.push_back(double(Spans[I].EndNs - Spans[I].BeginNs) * 1e-6);
  return D;
}

double Tracer::sumMs(const std::string &Name, size_t From) const {
  double Sum = 0;
  for (double D : durationsMs(Name, From))
    Sum += D;
  return Sum;
}

size_t Tracer::count(const std::string &Name, size_t From) const {
  return durationsMs(Name, From).size();
}

bool Tracer::write(const std::string &Path) const {
  std::lock_guard<std::mutex> Lock(M);
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"traceEvents\":[\n");
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    const int64_t End = S.EndNs < 0 ? S.BeginNs : S.EndNs;
    std::fprintf(F,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d}}\n",
                 I ? "," : "", S.Name, S.Tid, double(S.BeginNs) * 1e-3,
                 double(End - S.BeginNs) * 1e-3, I, S.Parent);
  }
  std::fprintf(F, "]}\n");
  return std::fclose(F) == 0;
}

//===----------------------------------------------------------------------===//
// Library helpers
//===----------------------------------------------------------------------===//

core::CompileOptions compileOptions(int Threads, runtime::CacheMode Mode,
                                    const std::string &CacheDir) {
  core::CompileOptions O;
  O.Threads = Threads;
  O.EnableLowPrecision = true;
  O.EnableFineGrainFusion = true;
  O.EnableCoarseGrainFusion = true;
  O.EnableLayoutPropagation = true;
  O.EnableBufferReuse = true;
  O.FastSoftmax = true;
  O.PrimitivesMode = false;
  O.Exec = exec::Backend::Bytecode;
  O.SplitIndependentPartitions = false;
  O.AsyncExec = false;
  O.Bucketing = core::BatchBucketing::Pow2;
  O.SpecCacheCap = 16;
  O.CacheMode = Mode;
  O.CacheDir = CacheDir;
  O.CacheMaxBytes = int64_t(4) << 30;
  return O;
}

void foldAll(const api::CompiledGraph &CG) {
  for (size_t I = 0; I < CG.numPartitions(); ++I)
    if (auto P = CG.compiledPartition(I))
      P->ensureFolded();
}

uint64_t degradations(const api::Session &S) {
  const api::HealthStats H = S.healthStats();
  return H.TransientFailures + H.DegradedToTree + H.DegradedToSerial +
         H.DegradedToReference + H.CacheFallbacks + H.CacheLockTimeouts +
         H.DeadlinesExceeded + H.Cancellations + H.MemLimitRejections;
}

//===----------------------------------------------------------------------===//
// Inputs and outputs
//===----------------------------------------------------------------------===//

void Io::bind() {
  InP.clear();
  OutP.clear();
  for (auto &T : In)
    InP.push_back(&T);
  for (auto &T : Out)
    OutP.push_back(&T);
}

Rng inputRng(uint64_t Seed, const std::string &Name) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (char Ch : Name)
    H = (H ^ uint8_t(Ch)) * 0x100000001b3ULL;
  return Rng(H ^ (Seed * 0x9e3779b97f4a7c15ULL));
}

void makeIo(const graph::Graph &G, Rng &R, Io &X) {
  X.In.clear();
  X.Out.clear();
  for (int64_t Id : G.inputs()) {
    const graph::LogicalTensor &T = G.tensor(Id);
    X.In.emplace_back(T.Ty, T.Shape);
    runtime::TensorData &D = X.In.back();
    if (T.Name == "mask" && T.Ty == DataType::F32 && T.Shape.size() == 4) {
      // [B, 1, 1, S]: each sequence keeps a seeded valid prefix of at
      // least half its length; the padded tail is masked out.
      const int64_t B = T.Shape[0], S = T.Shape[3];
      float *P = D.dataAs<float>();
      for (int64_t Bi = 0; Bi < B; ++Bi) {
        const int64_t Valid = R.uniformInt(S / 2, S);
        for (int64_t Si = 0; Si < S; ++Si)
          P[Bi * S + Si] = Si < Valid ? 0.0f : -10000.0f;
      }
    } else {
      D.fillRandom(R);
    }
  }
  for (int64_t Id : G.outputs()) {
    const graph::LogicalTensor &T = G.tensor(Id);
    X.Out.emplace_back(T.Ty, T.Shape);
  }
  X.bind();
}

runtime::TensorData sliceRows(const runtime::TensorData &T, int64_t Begin,
                              int64_t Count) {
  std::vector<int64_t> Shape = T.shape();
  const int64_t RowBytes = T.numBytes() / Shape[0];
  Shape[0] = Count;
  runtime::TensorData Out(T.dtype(), Shape);
  std::memcpy(Out.data(),
              static_cast<const char *>(T.data()) + Begin * RowBytes,
              size_t(Count * RowBytes));
  return Out;
}

bool sameBytes(const runtime::TensorData &A, const runtime::TensorData &B) {
  return A.dtype() == B.dtype() && A.shape() == B.shape() &&
         std::memcmp(A.data(), B.data(), size_t(A.numBytes())) == 0;
}

bool executesTo(api::Session &S, const api::CompiledGraph &CG,
                const graph::Graph &G,
                const std::vector<runtime::TensorData *> &In,
                const std::vector<runtime::TensorData> &Expected) {
  if (Expected.empty())
    return false;
  std::vector<runtime::TensorData> Out;
  std::vector<runtime::TensorData *> OutP;
  for (int64_t Id : G.outputs())
    Out.emplace_back(G.tensor(Id).Ty, G.tensor(Id).Shape);
  for (auto &T : Out)
    OutP.push_back(&T);
  if (!S.stream().execute(CG, In, OutP).isOk())
    return false;
  for (size_t I = 0; I < Out.size(); ++I)
    if (!sameBytes(Out[I], Expected[I]))
      return false;
  return true;
}

Check compareTolerance(const runtime::TensorData &Got,
                       const runtime::TensorData &Ref, bool Int8Graph) {
  Check C;
  if (Got.dtype() != Ref.dtype() || Got.shape() != Ref.shape()) {
    C.Ok = false;
    C.What = "shape or dtype differs from the reference";
    return C;
  }
  const int64_t N = Got.numElements();
  for (int64_t I = 0; I < N; ++I) {
    double G = 0, R = 0, Tol = 0;
    switch (Got.dtype()) {
    case DataType::F32:
      G = Got.dataAs<float>()[I];
      R = Ref.dataAs<float>()[I];
      Tol = kF32Atol + kF32Rtol * std::fabs(R) +
            (Int8Graph ? kInt8F32Atol : 0);
      break;
    case DataType::U8:
      G = Got.dataAs<uint8_t>()[I];
      R = Ref.dataAs<uint8_t>()[I];
      Tol = kU8Steps;
      break;
    default:
      C.Ok = false;
      C.What = "unsupported output dtype";
      return C;
    }
    const double E = std::fabs(G - R);
    if (!(E <= Tol)) // NaN fails too
      ++C.Bad;
    if (!(E <= C.MaxAbsErr))
      C.MaxAbsErr = E;
  }
  C.Ok = C.Bad == 0;
  return C;
}

//===----------------------------------------------------------------------===//
// Reference oracle
//===----------------------------------------------------------------------===//

namespace {

/// Hash of this executable's bytes. The reference interpreter is linked
/// into it, so any change to the library (the interpreter included) or to
/// the benchmark gives cached reference outputs a new key.
uint64_t executableHash() {
  static const uint64_t H = [] {
    std::ifstream F("/proc/self/exe", std::ios::binary);
    const std::string Bytes((std::istreambuf_iterator<char>(F)),
                            std::istreambuf_iterator<char>());
    return fnv1aBytesBulk(Bytes.data(), Bytes.size());
  }();
  return H;
}

/// Key of a cached reference result: the graph's canonical fingerprint
/// (op kinds, attributes, tensor types, layouts and constant bytes), the
/// input tensors and the executable that computed it.
uint64_t referenceKey(const graph::Graph &G,
                      const std::vector<runtime::TensorData> &Inputs) {
  uint64_t Parts[2] = {G.fingerprint(), executableHash()};
  uint64_t H = fnv1aBytes(Parts, sizeof Parts);
  for (const auto &T : Inputs) {
    const uint8_t Ty = uint8_t(T.dtype());
    H = fnv1aBytes(&Ty, 1, H);
    H = fnv1aBytes(T.shape().data(), T.shape().size() * sizeof(int64_t), H);
    H = fnv1aBytes(T.data(), size_t(T.numBytes()), H);
  }
  return H;
}

bool readCached(const std::string &Path,
                std::vector<runtime::TensorData> &Out) {
  FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return false;
  bool Ok = true;
  uint32_t Count = 0;
  Ok = std::fread(&Count, sizeof Count, 1, F) == 1 && Count < 64;
  for (uint32_t I = 0; Ok && I < Count; ++I) {
    uint8_t Ty = 0;
    uint32_t Rank = 0;
    Ok = std::fread(&Ty, 1, 1, F) == 1 &&
         std::fread(&Rank, sizeof Rank, 1, F) == 1 && Rank <= 8 &&
         Ty <= uint8_t(DataType::U8);
    std::vector<int64_t> Shape(Rank);
    Ok = Ok && std::fread(Shape.data(), sizeof(int64_t), Rank, F) == Rank;
    for (int64_t D : Shape)
      Ok = Ok && D > 0 && D < (int64_t(1) << 31);
    if (!Ok)
      break;
    runtime::TensorData T(DataType(Ty), Shape);
    Ok = std::fread(T.data(), 1, size_t(T.numBytes()), F) ==
         size_t(T.numBytes());
    Out.push_back(std::move(T));
  }
  std::fclose(F);
  if (!Ok)
    Out.clear();
  return Ok;
}

void writeCached(const std::string &Path,
                 const std::vector<runtime::TensorData> &Outs) {
  const std::string Tmp =
      Path + ".tmp" + std::to_string(::getpid()) + "." +
      std::to_string(std::hash<std::thread::id>()(std::this_thread::get_id()));
  FILE *F = std::fopen(Tmp.c_str(), "wb");
  if (!F)
    return;
  bool Ok = true;
  const uint32_t Count = uint32_t(Outs.size());
  Ok = std::fwrite(&Count, sizeof Count, 1, F) == 1;
  for (const auto &T : Outs) {
    const uint8_t Ty = uint8_t(T.dtype());
    const uint32_t Rank = uint32_t(T.rank());
    Ok = Ok && std::fwrite(&Ty, 1, 1, F) == 1 &&
         std::fwrite(&Rank, sizeof Rank, 1, F) == 1 &&
         std::fwrite(T.shape().data(), sizeof(int64_t), Rank, F) == Rank &&
         std::fwrite(T.data(), 1, size_t(T.numBytes()), F) ==
             size_t(T.numBytes());
  }
  Ok = (std::fclose(F) == 0) && Ok;
  if (!Ok || std::rename(Tmp.c_str(), Path.c_str()) != 0)
    std::remove(Tmp.c_str());
}

} // namespace

std::vector<runtime::TensorData>
referenceOutputs(const graph::Graph &G,
                 const std::vector<runtime::TensorData> &Inputs,
                 const std::string &CacheDir) {
  char Name[64];
  std::snprintf(Name, sizeof Name, "/ref-%016llx.bin",
                (unsigned long long)referenceKey(G, Inputs));
  const std::string Path = CacheDir + Name;
  std::vector<runtime::TensorData> Out;
  if (readCached(Path, Out) && Out.size() == G.outputs().size())
    return Out;
  graph::TensorMap Env;
  for (size_t I = 0; I < Inputs.size(); ++I)
    Env[G.inputs()[I]] = Inputs[I].clone();
  Out = graph::runGraphReference(G, std::move(Env));
  writeCached(Path, Out);
  return Out;
}

void runReferenceJobs(std::vector<RefJob> &Jobs, const std::string &CacheDir,
                      int Parallel) {
  std::atomic<size_t> Next{0};
  auto Worker = [&] {
    for (size_t J; (J = Next.fetch_add(1)) < Jobs.size();) {
      RefJob &Job = Jobs[J];
      const graph::Graph G = Job.Build(Job.SubBatch);
      std::vector<runtime::TensorData> Sub;
      for (size_t I = 0; I < Job.FullInputs->size(); ++I) {
        const runtime::TensorData &T = (*Job.FullInputs)[I];
        const int64_t Unit = T.dim(0) / Job.FullBatch;
        Sub.push_back(sliceRows(T, Job.B0 * Unit, Job.SubBatch * Unit));
      }
      const std::vector<runtime::TensorData> Ref =
          referenceOutputs(G, Sub, CacheDir);
      Job.Result = Check();
      for (size_t I = 0; I < Ref.size(); ++I) {
        const runtime::TensorData &Full = (*Job.FullOutputs)[I];
        const int64_t Unit = Full.dim(0) / Job.FullBatch;
        Check C = compareTolerance(
            sliceRows(Full, Job.B0 * Unit, Job.SubBatch * Unit), Ref[I],
            Job.Int8Graph);
        Job.Result.Ok = Job.Result.Ok && C.Ok;
        Job.Result.Bad += C.Bad;
        Job.Result.MaxAbsErr = std::max(Job.Result.MaxAbsErr, C.MaxAbsErr);
        if (!C.What.empty())
          Job.Result.What = C.What;
      }
    }
  };
  std::vector<std::thread> Threads;
  for (int I = 0; I < std::max(1, Parallel); ++I)
    Threads.emplace_back(Worker);
  for (auto &T : Threads)
    T.join();
}

//===----------------------------------------------------------------------===//
// Artifact-cache cold start
//===----------------------------------------------------------------------===//

void storeAll(const Context &C, const std::vector<const graph::Graph *> &Graphs,
              const std::string &Dir, LoadStats &LS) {
  for (const graph::Graph *G : Graphs) {
    PB_SPAN("runtime.cache_store");
    api::Session S(compileOptions(C.Threads, runtime::CacheMode::ReadWrite,
                                  Dir));
    auto CG = S.compile(*G);
    ++LS.Attempted;
    if (!CG || S.diskCacheStores() == 0)
      ++LS.Failed;
  }
}

void loadAll(const Context &C, const std::vector<const graph::Graph *> &Graphs,
             const std::string &Dir, int Reps, const ExecCheck &Check,
             LoadStats &LS) {
  LS.LoadMs.resize(Graphs.size());
  for (int Rep = 0; Rep < Reps; ++Rep) {
    for (size_t I = 0; I < Graphs.size(); ++I) {
      ++LS.Attempted;
      api::Session S(
          compileOptions(C.Threads, runtime::CacheMode::Read, Dir));
      double Ms = 0;
      api::CompiledGraphPtr CG;
      {
        PB_SPAN("runtime.cache_load");
        const double T0 = nowS();
        auto CGOr = S.compile(*Graphs[I]);
        if (CGOr) {
          CG = CGOr.takeValue();
          foldAll(*CG);
        }
        Ms = (nowS() - T0) * 1e3;
      }
      LS.DiskHits += S.diskCacheHits();
      if (!CG || S.diskCacheHits() == 0 || !Check(I, S, *CG)) {
        ++LS.Failed;
        continue;
      }
      LS.LoadMs[I].add(Ms);
    }
  }
}

} // namespace perfbench
