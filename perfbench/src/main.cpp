//===- main.cpp - perfbench command line ----------------------------------===//
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir> [--stray-env NAME,NAME]
//
// Runs one workload and prints, on stdout, a detail line (host, ISA,
// kernel tier, build type, real pool thread count, CPU time stolen by the
// hypervisor during the run, sample counts, checks)
// followed by the result as the last line:
//
//   {"correct":true,"attempted":N,"failed":N,"metrics":{"name":
//    {"value":V,"unit":"U"},...}}
//
// With --trace 1 the metrics are the per-layer ones and the spans are
// written to <workdir>/trace-<workload>-seed<n>.json.
//
//===----------------------------------------------------------------------===//

#include "common.h"

#include "kernels/cpu_features.h"
#include "verify/verify.h"

#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

std::string TmpDirToRemove;

void removeTmpDir() {
  if (TmpDirToRemove.empty())
    return;
  std::error_code Ec;
  std::filesystem::remove_all(TmpDirToRemove, Ec);
}

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "compile_table1|dlrm_top_int8 --seed N "
               "--seconds S --trace 0|1 --workdir DIR [--stray-env LIST]\n",
               Msg);
  std::exit(2);
}

/// JSON string escaping for the few free-form strings we print.
std::string jsonStr(const std::string &S) {
  std::string Out = "\"";
  for (char Ch : S) {
    if (Ch == '"' || Ch == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(Ch) < 0x20)
      Ch = ' ';
    Out += Ch;
  }
  return Out + "\"";
}

/// Total and stolen CPU ticks of the host so far (/proc/stat "cpu" line):
/// time the hypervisor ran other guests on this machine's vCPUs.
std::pair<double, double> cpuTicks() {
  FILE *F = std::fopen("/proc/stat", "r");
  if (!F)
    return {0, 0};
  double V[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  const int N = std::fscanf(F, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &V[0],
                            &V[1], &V[2], &V[3], &V[4], &V[5], &V[6], &V[7]);
  std::fclose(F);
  double Total = 0;
  for (int I = 0; I < N; ++I)
    Total += V[I];
  return {Total, N == 8 ? V[7] : 0};
}

std::string jsonNum(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%.17g", V);
  return Buf;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Workload, WorkDir, Stray;
  Context C;
  bool HaveSeed = false, HaveSeconds = false;
  for (int I = 1; I < Argc; ++I) {
    const std::string A = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + A).c_str());
    const char *V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      Workload = V;
    } else if (A == "--seed") {
      C.Seed = std::strtoull(V, &End, 10);
      HaveSeed = End && *End == '\0' && *V != '\0';
    } else if (A == "--seconds") {
      C.Seconds = std::strtod(V, &End);
      HaveSeconds = End && *End == '\0' && C.Seconds > 0 && C.Seconds < 3600;
    } else if (A == "--trace") {
      if (std::strcmp(V, "0") && std::strcmp(V, "1"))
        usage("--trace takes 0 or 1");
      C.Trace = V[0] == '1';
    } else if (A == "--workdir") {
      WorkDir = V;
    } else if (A == "--stray-env") {
      Stray = V;
    } else {
      usage(("unknown argument " + A).c_str());
    }
  }
  if (!HaveSeed || !HaveSeconds || WorkDir.empty())
    usage("--seed, --seconds and --workdir are required");
  Result (*Run)(const Context &) = nullptr;
  if (Workload == "compile_table1")
    Run = runCompile;
  else if (Workload == "dlrm_top_int8")
    Run = runDlrm;
  else
    usage("unknown workload");

  // Pin what the library would otherwise take from the environment.
  verify::setVerifyLevel(verify::VerifyLevel::Graph);
  C.Threads = int(std::max(1u, std::thread::hardware_concurrency()));
  C.WorkDir = WorkDir;
  C.TmpDir = WorkDir + "/tmp-" + std::to_string(::getpid());
  std::error_code Ec;
  std::filesystem::create_directories(C.WorkDir, Ec);
  // Artifact-cache directories left by runs that were killed.
  for (const auto &E : std::filesystem::directory_iterator(C.WorkDir, Ec)) {
    const std::string Name = E.path().filename().string();
    if (Name.rfind("tmp-", 0) == 0 &&
        ::kill(pid_t(std::atoi(Name.c_str() + 4)), 0) != 0 && errno == ESRCH)
      std::filesystem::remove_all(E.path(), Ec);
  }
  std::filesystem::remove_all(C.TmpDir, Ec);
  if (!std::filesystem::create_directories(C.TmpDir, Ec)) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", C.TmpDir.c_str());
    return 1;
  }
  TmpDirToRemove = C.TmpDir;
  std::atexit(removeTmpDir);

  const std::pair<double, double> Ticks0 = cpuTicks();
  Result R = Run(C);
  const std::pair<double, double> Ticks1 = cpuTicks();
  const double Ticks = Ticks1.first - Ticks0.first;
  const double StealPct =
      Ticks > 0 ? 100.0 * (Ticks1.second - Ticks0.second) / Ticks : 0;
  if (C.Trace) {
    const std::string Path = WorkDir + "/trace-" + Workload + "-seed" +
                             std::to_string(C.Seed) + ".json";
    if (tracer().write(Path))
      R.Notes.push_back("trace written to " + Path);
  }
  for (const Metric &M : R.Metrics)
    if (!std::isfinite(M.Value)) {
      R.Correct = false;
      R.Notes.push_back("non-finite value for " + M.Name);
    }

  char Host[256] = {0};
  ::gethostname(Host, sizeof Host - 1);
  std::string Detail = "{\"detail\":{\"workload\":" + jsonStr(Workload) +
                       ",\"seed\":" + std::to_string(C.Seed) +
                       ",\"seconds\":" + jsonNum(C.Seconds) +
                       ",\"trace\":" + (C.Trace ? "1" : "0") +
                       ",\"host\":" + jsonStr(Host) +
                       ",\"isa\":" + jsonStr(kernels::isaName()) +
                       ",\"kernel_tier\":" +
                       jsonStr(kernels::kernelTierName(
                           kernels::activeKernelTier())) +
                       ",\"build_type\":" + jsonStr(PERFBENCH_BUILD_TYPE) +
                       ",\"pool_threads\":" + std::to_string(R.PoolThreads) +
                       ",\"host_steal_pct\":" + jsonNum(StealPct) +
                       ",\"verify_level\":\"graph\"" +
                       ",\"stray_gc_env_removed\":" + jsonStr(Stray) +
                       ",\"metrics\":{";
  for (size_t I = 0; I < R.Metrics.size(); ++I) {
    const Metric &M = R.Metrics[I];
    Detail += (I ? "," : "") + jsonStr(M.Name) + ":{\"value\":" +
              jsonNum(M.Value) + ",\"unit\":" + jsonStr(M.Unit) +
              ",\"samples\":" + std::to_string(M.N) +
              (M.Note.empty() ? "" : ",\"note\":" + jsonStr(M.Note)) + "}";
  }
  Detail += "},\"notes\":[";
  for (size_t I = 0; I < R.Notes.size(); ++I)
    Detail += (I ? "," : "") + jsonStr(R.Notes[I]);
  Detail += "]}}";
  std::printf("%s\n", Detail.c_str());

  std::string Out = std::string("{\"correct\":") +
                    (R.Correct ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(R.Attempted) +
                    ",\"failed\":" + std::to_string(R.Failed) +
                    ",\"metrics\":{";
  for (size_t I = 0; I < R.Metrics.size(); ++I) {
    const Metric &M = R.Metrics[I];
    Out += (I ? "," : "") + jsonStr(M.Name) + ":{\"value\":" +
           jsonNum(std::isfinite(M.Value) ? M.Value : -1.0) +
           ",\"unit\":" + jsonStr(M.Unit) + "}";
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
  std::fflush(stdout);
  return 0;
}
