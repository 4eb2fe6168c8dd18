//===- perfbench/src/main.cpp - Repository benchmark binary ---------------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
//
// perfbench --workload <transfer|lookup_ckpt|embedded|compiled>
//           --seed N --seconds S --trace 0|1 --dir <scratch dir>
//
// Trace 0 is the end-to-end run: set the workload up four times
// (setup_s is the median), measure S/4 seconds on each set-up, check its
// invariants after each. Trace 1 is the trace suite: every workload runs an
// untraced and a traced slice on one set-up (S/2 seconds each for the
// named workload, S/4 but 2 to 5 s for the others) plus the
// layer-isolated replays,
// and the spans are dumped to <dir>/spans.bin at exit. Raw figures go
// to <dir>/report.json for perfbench/run.py to summarize. Exit status
// 0 means every correctness check passed.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace pb;

namespace {

bool runOne(const Config &C, const std::string &Name, Report &R,
            double Seconds, bool Suite) {
  if (Name == "transfer")
    return runServerWorkload(C, false, R, Seconds, Suite);
  if (Name == "lookup_ckpt")
    return runServerWorkload(C, true, R, Seconds, Suite);
  if (Name == "embedded")
    return runEngineWorkload(C, false, R, Seconds, Suite);
  return runEngineWorkload(C, true, R, Seconds, Suite);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <transfer|lookup_ckpt|embedded|"
               "compiled> --seed N --seconds S --trace 0|1 --dir D\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  Config C;
  for (int I = 1; I + 1 < argc; I += 2) {
    std::string Flag = argv[I], Val = argv[I + 1];
    if (Flag == "--workload")
      C.Workload = Val;
    else if (Flag == "--seed")
      C.Seed = std::strtoull(Val.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      C.Seconds = std::atof(Val.c_str());
    else if (Flag == "--trace")
      C.Trace = Val == "1";
    else if (Flag == "--dir")
      C.Dir = Val;
    else
      return usage();
  }
  const char *const Names[] = {"transfer", "lookup_ckpt", "embedded",
                               "compiled"};
  if (C.Dir.empty() || C.Seconds <= 0 ||
      std::find(std::begin(Names), std::end(Names), C.Workload) ==
          std::end(Names))
    return usage();
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "perfbench: refusing to report from a %s build; build "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  if (!makeDirs(C.Dir)) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", C.Dir.c_str());
    return 2;
  }

  Report R;
  R.text("build_type", PERFBENCH_BUILD_TYPE);
  R.text("compiler", PERFBENCH_CXX_ID);
  R.text("assertions", PERFBENCH_ASSERTIONS ? "on" : "off");
  if (!C.Trace) {
    runOne(C, C.Workload, R, C.Seconds, false);
  } else {
    double Short = std::max(2.0, std::min(5.0, C.Seconds / 4));
    for (const char *Name : Names)
      runOne(C, Name, R,
             Name == C.Workload ? std::max(Short, C.Seconds / 2) : Short,
             true);
    runServerProbes(C, R, Short);
    if (!trace::dump(C.Dir + "/spans.bin"))
      R.violation("cannot write the span dump");
    std::string NamesPath = C.Dir + "/span_names.txt";
    if (std::FILE *F = std::fopen(NamesPath.c_str(), "w")) {
      for (uint32_t N = 0; N != SpNumNames; ++N)
        std::fprintf(F, "%s\n", spanName(N));
      std::fclose(F);
    }
  }
  if (!R.write(C.Dir)) {
    std::fprintf(stderr, "perfbench: cannot write the report\n");
    return 2;
  }
  return R.correct() ? 0 : 1;
}
