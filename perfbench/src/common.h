//===- common.h - Shared harness of the perfbench benchmark ----*- C++ -*-===//
///
/// \file
/// Timing statistics, the span tracer, seeded input generation, the
/// reference-interpreter oracle and result reporting shared by the two
/// workloads (compile.cpp, dlrm.cpp) and the per-layer probes
/// (layers.cpp). Everything here drives the library through its public
/// headers only.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "api/session.h"
#include "graph/graph.h"
#include "runtime/tensor_data.h"
#include "support/rng.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using namespace gc;

//===----------------------------------------------------------------------===//
// Time and statistics
//===----------------------------------------------------------------------===//

/// Seconds on the steady clock since the first call (process start).
double nowS();

/// A list of timing samples with the guide's summary statistics.
struct Samples {
  std::vector<double> V;

  void add(double X) { V.push_back(X); }
  size_t size() const { return V.size(); }
  double median() const;
  double mean() const;
  /// Nearest-rank quantile, \p P in [0, 100].
  double percentile(double P) const;
  /// The highest whole percentile that leaves at least ten samples beyond
  /// it, capped at 99; 0 when there are fewer than eleven samples.
  int tailPercentile() const;
  /// Value at tailPercentile() (the maximum when there is no such
  /// percentile).
  double tail() const;
};

/// Geometric mean of positive values.
double geomean(const std::vector<double> &V);

/// Peak resident set size of this process in MiB (VmHWM).
double peakRssMb();

/// Returns heap memory freed so far to the system (every malloc arena), so
/// that a repeated set-up starts from the same resident heap and peak RSS
/// does not depend on which arenas earlier set-ups happened to use.
void releaseFreedMemory();

/// Threads alive in this process.
int processThreads();

/// Detail note marking the first timed operation: seconds since process
/// start and the threads alive at that point.
std::string firstTimedOpNote();

//===----------------------------------------------------------------------===//
// Span tracer
//===----------------------------------------------------------------------===//

/// Records named spans (start, end, parent) in memory while enabled and
/// writes them once, as Chrome trace-event JSON, at the end of the run.
/// Disabled, a Scope costs one relaxed load.
class Tracer {
public:
  class Scope {
  public:
    Scope(Tracer &T, const char *Name);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *T = nullptr;
    int32_t Id = -1;
    int32_t SavedParent = -1;
  };

  void setEnabled(bool On) { Enabled.store(On, std::memory_order_relaxed); }
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  /// Spans recorded so far; pass it as \p From below to look only at
  /// later spans.
  size_t mark() const;
  /// Sum of the durations of the spans named \p Name, in milliseconds.
  double sumMs(const std::string &Name, size_t From = 0) const;
  /// Number of spans named \p Name.
  size_t count(const std::string &Name, size_t From = 0) const;
  /// Writes every recorded span to \p Path; false on I/O failure.
  bool write(const std::string &Path) const;

private:
  struct Span {
    const char *Name;
    int64_t BeginNs;
    int64_t EndNs;
    int32_t Parent;
    uint32_t Tid;
  };
  std::vector<double> durationsMs(const std::string &Name, size_t From) const;

  std::atomic<bool> Enabled{false};
  mutable std::mutex M; // guards Spans
  std::vector<Span> Spans;
};

/// The process-wide tracer.
Tracer &tracer();

#define PB_CAT2(A, B) A##B
#define PB_CAT(A, B) PB_CAT2(A, B)
/// Records a span named \p Name around the rest of the enclosing block.
#define PB_SPAN(Name)                                                          \
  ::perfbench::Tracer::Scope PB_CAT(PbSpan, __LINE__)(::perfbench::tracer(),   \
                                                      Name)

//===----------------------------------------------------------------------===//
// Run context and result
//===----------------------------------------------------------------------===//

/// Everything a workload needs from the command line.
struct Context {
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Compute threads of every pool: the host's hardware concurrency.
  int Threads = 1;
  /// Scratch directory inside the checkout (reference cache, traces).
  std::string WorkDir;
  /// Fresh per-run directory for artifact caches; removed at exit.
  std::string TmpDir;
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
  /// Samples behind the value (0 for counts and derived values).
  size_t N = 0;
  /// Free-form qualifier printed in the detail line, e.g. "p58".
  std::string Note;
};

struct Result {
  std::vector<Metric> Metrics;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// ThreadPool::numThreads() of the pool the timed operations ran on.
  int PoolThreads = 0;
  /// False when any checked output was outside tolerance or any
  /// operation returned an error.
  bool Correct = true;
  std::vector<std::string> Notes;

  void add(const std::string &Name, double Value, const std::string &Unit,
           size_t N = 0, const std::string &Note = "") {
    Metrics.push_back({Name, Value, Unit, N, Note});
  }
};

/// CompileOptions with every knob the benchmark relies on set explicitly:
/// \p Threads workers, the default pipeline, bytecode engine, merged
/// partitions, serial scheduling, pow2 buckets, and the given cache mode.
core::CompileOptions compileOptions(int Threads, runtime::CacheMode Mode,
                                    const std::string &CacheDir = "");

/// Runs \p CG's fold functions now (constant packing) for every compiled
/// partition.
void foldAll(const api::CompiledGraph &CG);

/// Sum of every HealthStats counter of \p S.
uint64_t degradations(const api::Session &S);

//===----------------------------------------------------------------------===//
// Inputs, outputs and the reference oracle
//===----------------------------------------------------------------------===//

/// Bound input and output tensors of one graph.
struct Io {
  std::vector<runtime::TensorData> In, Out;
  std::vector<runtime::TensorData *> InP, OutP;
  Io() = default;
  Io(const Io &) = delete;
  Io &operator=(const Io &) = delete;
  void bind();
};

/// The input generator of graph \p Name at workload seed \p Seed. Two
/// workloads that run the same graph at the same seed feed it the same
/// inputs, so they share one cached reference result.
Rng inputRng(uint64_t Seed, const std::string &Name);

/// Allocates \p G's inputs filled from \p R (f32 in [-1, 1); an input
/// named "mask" gets 0 for valid and -10000 for padded key positions with
/// a seeded valid length) and zeroed outputs.
void makeIo(const graph::Graph &G, Rng &R, Io &IoOut);

/// Rows [Begin, Begin + Count) of dim 0 of \p T (a deep copy).
runtime::TensorData sliceRows(const runtime::TensorData &T, int64_t Begin,
                              int64_t Count);

/// Builds a workload graph at a given batch size. Graphs of one builder
/// share their weights at every batch size, so a batch subset of a large
/// graph can be checked against the reference on a small one.
using GraphBuilder = std::function<graph::Graph(int64_t Batch)>;

/// Outcome of comparing outputs with the reference.
struct Check {
  bool Ok = true;
  double MaxAbsErr = 0;
  int64_t Bad = 0; ///< elements outside tolerance
  std::string What;
};

/// Per-dtype tolerance (see README.md). f32 elements pass when
/// |got - ref| <= kF32Atol + kF32Rtol * |ref|, plus kInt8F32Atol when the
/// graph computes in int8; u8 elements pass within one quantization step.
constexpr double kF32Atol = 1e-3;
constexpr double kF32Rtol = 1e-3;
/// Two boundary flips of the u8 attention probabilities (scale 1/255)
/// times the largest s8 value (128 x 0.02) in the Table 1 int8 MHA graphs.
constexpr double kInt8F32Atol = 2 * (1.0 / 255.0) * 128 * 0.02;
constexpr double kU8Steps = 1.0;

/// Compares \p Got with \p Ref element-wise under the per-dtype tolerance;
/// \p Int8Graph selects the int8 allowance for f32 outputs.
Check compareTolerance(const runtime::TensorData &Got,
                       const runtime::TensorData &Ref, bool Int8Graph = false);

/// One reference check: the graph built at batch \p SubBatch, fed batch
/// elements [B0, B0 + SubBatch) of \p FullInputs (a graph built at
/// \p FullBatch), must reproduce the same slice of \p FullOutputs.
struct RefJob {
  std::string Name;
  GraphBuilder Build;
  int64_t FullBatch = 1;
  int64_t B0 = 0;
  int64_t SubBatch = 1;
  bool Int8Graph = false;
  const std::vector<runtime::TensorData> *FullInputs = nullptr;
  const std::vector<runtime::TensorData> *FullOutputs = nullptr;
  Check Result;
};

/// Runs every job through graph::runGraphReference, up to \p Parallel at a
/// time. Reference outputs are cached under \p CacheDir keyed by the
/// sub-graph's fingerprint, its inputs and a hash of this executable, so a
/// seed pays the reference interpreter once per build.
void runReferenceJobs(std::vector<RefJob> &Jobs, const std::string &CacheDir,
                      int Parallel);

/// Reference outputs of \p G on \p Inputs (cached like runReferenceJobs).
std::vector<runtime::TensorData>
referenceOutputs(const graph::Graph &G,
                 const std::vector<runtime::TensorData> &Inputs,
                 const std::string &CacheDir);

/// True when the two tensors hold identical bytes.
bool sameBytes(const runtime::TensorData &A, const runtime::TensorData &B);

/// Executes \p CG (compiled from \p G) once on \p In through a stream of
/// \p S; true when every output equals \p Expected bit for bit (false
/// when there is nothing to compare with).
bool executesTo(api::Session &S, const api::CompiledGraph &CG,
                const graph::Graph &G,
                const std::vector<runtime::TensorData *> &In,
                const std::vector<runtime::TensorData> &Expected);

//===----------------------------------------------------------------------===//
// Artifact-cache cold start
//===----------------------------------------------------------------------===//

/// Executes a compiled or loaded graph \p G (index into the list) once and
/// checks its outputs; true when they pass.
using ExecCheck =
    std::function<bool(size_t G, api::Session &S,
                       const api::CompiledGraph &CG)>;

struct LoadStats {
  /// Per graph: warm-cache Session::compile plus fold, milliseconds.
  std::vector<Samples> LoadMs;
  uint64_t DiskHits = 0;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

/// Stores each of \p Graphs into the empty artifact-cache directory
/// \p Dir through one fresh read-write Session per graph; a graph that is
/// not stored counts as failed.
void storeAll(const Context &C, const std::vector<const graph::Graph *> &Graphs,
              const std::string &Dir, LoadStats &LS);

/// \p Reps times loads every graph stored by storeAll() through a fresh
/// read-only Session, timing compile plus fold. Each load must be served
/// from disk and is executed once through \p Check; a load that misses the
/// disk cache or fails its check counts as failed.
void loadAll(const Context &C, const std::vector<const graph::Graph *> &Graphs,
             const std::string &Dir, int Reps, const ExecCheck &Check,
             LoadStats &LS);

//===----------------------------------------------------------------------===//
// Workloads and probes
//===----------------------------------------------------------------------===//

Result runCompile(const Context &C);
Result runDlrm(const Context &C);

/// Graphs a workload compiles, for the per-layer compile probe.
struct NamedGraph {
  std::string Name;
  GraphBuilder Build;
  int64_t Batch = 1;
};
std::vector<NamedGraph> bertGraphs();
std::vector<NamedGraph> dlrmGraphs();
std::vector<NamedGraph> table1Graphs();

/// The per-layer probes of the traced run (layers.cpp): the compile
/// pipeline decomposed over \p Graphs, the artifact cache on them, their
/// primitives-baseline execution, and the fixed probes (DLRM dispatch,
/// kernels, thread pool, serving, loop-nest baseline). Appends every
/// per-layer metric to \p R.
void runLayerProbes(const Context &C, const std::vector<NamedGraph> &Graphs,
                    Result &R);

/// Serving probe (dlrm.cpp): runs \p Seconds of open-loop Poisson queries
/// on a fresh server holding the int8 DLRM models and appends the serve.*
/// metrics to \p R.
void runServeProbe(const Context &C, double Seconds, Result &R);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
