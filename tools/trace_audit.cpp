// trace_audit -- run a workload under one of the paper's methods with the
// tracer attached, certify the captured history (SR for CC schedulers at
// piece granularity, ESR ledger replay always), and print the verdict.
// Optionally export the trace as Chrome trace_event JSON (load it in
// chrome://tracing or https://ui.perfetto.dev) or newline-delimited JSON.
//
//   ./trace_audit [--method=NAME] [--workload=NAME] [--txns=N] [--seed=N]
//                 [--workers=N] [--chrome=FILE] [--ndjson=FILE]
//
//   methods:   baseline_sr  method1  method2  method3   (default method3)
//   workloads: banking  airline  orders  payroll        (default banking)
//
// Exit status 0 iff every applicable certifier passes on a complete trace.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>

#include "audit/esr_certifier.h"
#include "audit/sr_certifier.h"
#include "engine/executor.h"
#include "trace/export.h"
#include "trace/tracer.h"
#include "workload/airline.h"
#include "workload/banking.h"
#include "workload/orders.h"
#include "workload/payroll.h"

using namespace atp;

namespace {

std::optional<MethodConfig> method_by_name(const std::string& name) {
  if (name == "baseline_sr") return MethodConfig::baseline_sr();
  if (name == "method1") return MethodConfig::method1(DistPolicy::Dynamic);
  if (name == "method2") return MethodConfig::method2();
  if (name == "method3") return MethodConfig::method3(DistPolicy::Dynamic);
  return std::nullopt;
}

std::optional<Workload> workload_by_name(const std::string& name,
                                         std::size_t txns,
                                         std::uint64_t seed) {
  if (name == "banking") return make_banking(BankingConfig{}, txns, seed);
  if (name == "airline") return make_airline(AirlineConfig{}, txns, seed);
  if (name == "orders") return make_orders(OrdersConfig{}, txns, seed);
  if (name == "payroll") return make_payroll(PayrollConfig{}, txns, seed);
  return std::nullopt;
}

bool write_file(const std::string& path,
                void (*writer)(const std::vector<TraceEvent>&, std::ostream&),
                const std::vector<TraceEvent>& events) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  writer(events, out);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string method_name = "method3";
  std::string workload_name = "banking";
  std::string chrome_path, ndjson_path;
  std::size_t txns = 500;
  std::uint64_t seed = 1;
  std::size_t workers = 4;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> std::optional<std::string> {
      if (arg.rfind(prefix, 0) == 0) return arg.substr(std::strlen(prefix));
      return std::nullopt;
    };
    if (auto v = value("--method=")) {
      method_name = *v;
    } else if (auto v = value("--workload=")) {
      workload_name = *v;
    } else if (auto v = value("--txns=")) {
      txns = std::strtoull(v->c_str(), nullptr, 10);
    } else if (auto v = value("--seed=")) {
      seed = std::strtoull(v->c_str(), nullptr, 10);
    } else if (auto v = value("--workers=")) {
      workers = std::strtoull(v->c_str(), nullptr, 10);
    } else if (auto v = value("--chrome=")) {
      chrome_path = *v;
    } else if (auto v = value("--ndjson=")) {
      ndjson_path = *v;
    } else {
      std::printf(
          "usage: trace_audit [--method=baseline_sr|method1|method2|method3]\n"
          "                   [--workload=banking|airline|orders|payroll]\n"
          "                   [--txns=N] [--seed=N] [--workers=N]\n"
          "                   [--chrome=FILE] [--ndjson=FILE]\n");
      return arg == "--help" || arg == "-h" ? 0 : 1;
    }
  }

  const auto method = method_by_name(method_name);
  if (!method) {
    std::fprintf(stderr, "unknown method %s\n", method_name.c_str());
    return 1;
  }
  const auto workload = workload_by_name(workload_name, txns, seed);
  if (!workload) {
    std::fprintf(stderr, "unknown workload %s\n", workload_name.c_str());
    return 1;
  }

  auto plan = ExecutionPlan::build(workload->types, *method);
  if (!plan.ok()) {
    std::fprintf(stderr, "plan error: %s\n", plan.status().to_string().c_str());
    return 1;
  }

  Tracer tracer(1 << 20);
  DatabaseOptions dbo = Executor::database_options(*method);
  dbo.tracer = &tracer;
  Database db(dbo);
  workload->load_into(db);
  ExecutorOptions opts;
  opts.workers = workers;
  opts.seed = seed;
  const ExecutorReport report =
      Executor::run(db, plan.value(), workload->instances, opts);

  std::printf("ran %s on %s: %zu txns, %llu committed, %llu rolled back, "
              "%.0f tps\n",
              method->name().c_str(), workload_name.c_str(),
              workload->instances.size(),
              static_cast<unsigned long long>(report.committed),
              static_cast<unsigned long long>(report.rolled_back),
              report.throughput_tps);

  const auto events = tracer.collect();
  const std::uint64_t dropped = tracer.dropped();
  std::printf("trace: %zu events, %llu dropped\n", events.size(),
              static_cast<unsigned long long>(dropped));

  if (!chrome_path.empty() &&
      !write_file(chrome_path, write_chrome_trace, events)) {
    return 1;
  }
  if (!ndjson_path.empty() && !write_file(ndjson_path, write_ndjson, events)) {
    return 1;
  }
  if (!chrome_path.empty()) {
    std::printf("chrome trace written to %s\n", chrome_path.c_str());
  }
  if (!ndjson_path.empty()) {
    std::printf("ndjson written to %s\n", ndjson_path.c_str());
  }

  bool ok = true;

  // SR certification is sound only under concurrency control: divergence
  // control lets queries read past their snapshot, so its histories are
  // judged by the ESR ledger alone.
  if (method->sched == SchedulerKind::CC) {
    const SrReport sr = certify_sr(events, nullptr, dropped);
    std::printf("piece level:    %s\n", sr.describe().c_str());
    ok = ok && sr.serializable && sr.complete;
    if (method->chop == ChopMode::None) {
      const auto merge = piece_merge_map(events);
      const SrReport merged = certify_sr(events, &merge, dropped);
      std::printf("original level: %s\n", merged.describe().c_str());
      ok = ok && merged.serializable && merged.complete;
    }
  }

  const EsrReport esr = certify_esr(events, dropped);
  std::printf("%s\n", esr.describe().c_str());
  ok = ok && esr.ok && esr.complete;

  std::printf("verdict: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
