// atp_perfbench: the repository benchmark's measuring binary (run it through
// perfbench/run.py, which builds it and checks its output).
//
//   atp_perfbench --workload W --seed N --seconds S --trace 0|1
//                 [--spans-out FILE] [--source-id ID]
//   atp_perfbench --self-test
//
// Prints human-readable progress on stderr and, as the last line of stdout,
// one JSON object: {"correct", "attempted", "failed", "metrics", "detail",
// "gate_failures", "provenance"}.  Any failed correctness gate makes the
// run exit 1 with an empty "metrics" object: a run that produced wrong
// outputs reports no numbers.
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "common.h"
#include "workloads.h"

namespace perfbench {

namespace {

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_str(ms[i].name) + ": {\"value\": " + json_num(ms[i].value) +
           ", \"unit\": " + json_str(ms[i].unit) + "}";
  }
  return out + "}";
}

struct Provenance {
  std::string build_type = PERFBENCH_BUILD_TYPE;
#ifdef ATP_LOCK_CHECK
  bool lock_check = true;
#else
  bool lock_check = false;
#endif
#ifdef ATP_OBS_ENABLED
  bool obs = true;
#else
  bool obs = false;
#endif
#ifdef NDEBUG
  bool ndebug = true;
#else
  bool ndebug = false;
#endif
#if defined(__SANITIZE_ADDRESS__)
  std::string sanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
  std::string sanitizer = "thread";
#else
  std::string sanitizer;
#endif
  std::string compiler = "gcc " __VERSION__;
  unsigned nproc = std::thread::hardware_concurrency();
  std::string source;

  /// Numbers of record need an optimized, unchecked, unsanitized build:
  /// lock checking alone costs about 40 % at engine-bound rates.
  [[nodiscard]] bool of_record() const {
    return !lock_check && sanitizer.empty() && ndebug &&
           (build_type == "Release" || build_type == "RelWithDebInfo");
  }

  [[nodiscard]] std::string json() const {
    auto b = [](bool v) { return v ? "true" : "false"; };
    return std::string("{\"build_type\": ") + json_str(build_type) +
           ", \"lock_check\": " + b(lock_check) + ", \"obs\": " + b(obs) +
           ", \"ndebug\": " + b(ndebug) + ", \"sanitizer\": " +
           json_str(sanitizer) + ", \"compiler\": " + json_str(compiler) +
           ", \"nproc\": " + std::to_string(nproc) +
           ", \"source\": " + json_str(source) + "}";
  }
};

int usage() {
  std::fprintf(stderr,
               "usage: atp_perfbench --workload engine_wide|engine_hot_certify|"
               "wire_oltp --seed N --seconds S --trace 0|1 [--spans-out FILE] "
               "[--source-id ID]\n       atp_perfbench --self-test\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunArgs args;
  Provenance prov;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--self-test") return self_test();
    if (a == "--workload" && has_value) {
      args.workload = argv[++i];
      have_workload = true;
    } else if (a == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      args.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--spans-out" && has_value) {
      args.spans_out = argv[++i];
    } else if (a == "--source-id" && has_value) {
      prov.source = argv[++i];
    } else {
      return usage();
    }
  }
  const bool engine =
      args.workload == "engine_wide" || args.workload == "engine_hot_certify";
  if (!have_workload || (!engine && args.workload != "wire_oltp") ||
      !(args.seconds > 0 && args.seconds <= 600)) {
    return usage();
  }
  if (!prov.of_record()) {
    std::fprintf(stderr,
                 "atp_perfbench: refusing to report numbers from a %s build "
                 "(lock_check=%d, sanitizer='%s', NDEBUG=%d); rebuild unchecked\n",
                 prov.build_type.c_str(), int(prov.lock_check),
                 prov.sanitizer.c_str(), int(prov.ndebug));
    return 3;
  }
  if (self_test() != 0) return 1;

  std::fprintf(stderr, "atp_perfbench: %s seed=%llu seconds=%g trace=%d\n",
               args.workload.c_str(), (unsigned long long)args.seed,
               args.seconds, int(args.trace));
  const std::unique_ptr<Bench> bench =
      engine ? make_engine_bench(args) : make_wire_bench(args);
  Report rep = run_workload(args, *bench);
  const bool correct = rep.gate_failures.empty();
  for (const std::string& g : rep.gate_failures) {
    std::fprintf(stderr, "GATE FAILED: %s\n", g.c_str());
  }
  std::string gates = "[";
  for (std::size_t i = 0; i < rep.gate_failures.size(); ++i) {
    if (i > 0) gates += ", ";
    gates += json_str(rep.gate_failures[i]);
  }
  gates += "]";
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s, \"detail\": %s, \"gate_failures\": %s, "
              "\"provenance\": %s}\n",
              correct ? "true" : "false", (unsigned long long)rep.attempted,
              (unsigned long long)rep.failed,
              correct ? metrics_json(rep.metrics).c_str() : "{}",
              correct ? metrics_json(rep.detail).c_str() : "{}", gates.c_str(),
              prov.json().c_str());
  return correct ? 0 : 1;
}
