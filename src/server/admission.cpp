#include "server/admission.h"

#include <cmath>
#include <cstdlib>

namespace atp::server {

std::vector<ClassPolicy> default_classes() {
  return {
      {"gold", 0, kInfiniteLimit, 64},
      {"silver", 500, /*concurrent_budget=*/4000, 32},
      {"bronze", 100000, kInfiniteLimit, 16},
  };
}

bool parse_class_policy(const std::string& spec, ClassPolicy* out) {
  ClassPolicy p;
  std::size_t start = 0;
  std::vector<std::string> parts;
  while (start <= spec.size()) {
    const std::size_t colon = spec.find(':', start);
    if (colon == std::string::npos) {
      parts.push_back(spec.substr(start));
      break;
    }
    parts.push_back(spec.substr(start, colon - start));
    start = colon + 1;
  }
  if (parts.size() < 2 || parts.size() > 4 || parts[0].empty()) return false;
  auto num = [](const std::string& s, double* v) {
    if (s == "inf") {
      *v = double(kInfiniteLimit);
      return true;
    }
    char* end = nullptr;
    *v = std::strtod(s.c_str(), &end);
    return end != nullptr && *end == '\0' && !s.empty() && *v >= 0;
  };
  p.name = parts[0];
  double limit = 0;
  if (!num(parts[1], &limit)) return false;
  p.import_ceiling = limit;
  if (parts.size() >= 3) {
    double budget = 0;
    if (!num(parts[2], &budget)) return false;
    p.concurrent_budget = budget;
  }
  if (parts.size() == 4) {
    double window = 0;
    if (!num(parts[3], &window) || window < 1 || window > 4096 ||
        std::isinf(window)) {
      return false;
    }
    p.window = std::size_t(window);
  }
  *out = p;
  return true;
}

AdmissionController::AdmissionController(std::vector<ClassPolicy> classes)
    : classes_(std::move(classes)) {}

const ClassPolicy* AdmissionController::find(const std::string& name) const {
  for (const ClassPolicy& c : classes_) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

Value AdmissionController::cost_of(const EpsilonSpec& spec) noexcept {
  return std::isinf(spec.import_limit) ? 0 : spec.import_limit;
}

AdmissionController::Grant AdmissionController::admit(const ClassPolicy& cls,
                                                      TxnKind kind,
                                                      double req_import) {
  Grant g;
  // Negative request = "give me the class default".  NaN is a hostile wire
  // value; treat it as a default request rather than letting it poison the
  // comparisons below.
  const Value imp_lim = (req_import < 0 || std::isnan(req_import))
                            ? cls.import_ceiling
                            : Value(req_import);
  if (imp_lim > cls.import_ceiling) {
    g.status = Status::EpsilonExceeded(
        "class '" + cls.name + "' ceiling import=" +
        std::to_string(double(cls.import_ceiling)));
    return g;
  }
  // Divergence control is import-only: a query gets the limit it asked for,
  // an update is serializable and costs the class nothing (spec_for).
  const EpsilonSpec spec = spec_for(kind, imp_lim);

  const Value cost = cost_of(spec);
  {
    std::lock_guard lock(mu_);
    Value& out = outstanding_[cls.name];
    if (!std::isinf(double(cls.concurrent_budget)) &&
        out + cost > cls.concurrent_budget) {
      g.status = Status::Unavailable(
          "class '" + cls.name + "' concurrent eps budget exhausted (" +
          std::to_string(double(out)) + " of " +
          std::to_string(double(cls.concurrent_budget)) + " outstanding)");
      return g;
    }
    out += cost;
  }
  g.admitted = true;
  g.spec = spec;
  g.status = Status::Ok();
  return g;
}

void AdmissionController::release(const ClassPolicy& cls,
                                  const EpsilonSpec& granted) {
  const Value cost = cost_of(granted);
  if (cost == 0) return;
  std::lock_guard lock(mu_);
  Value& out = outstanding_[cls.name];
  out = out > cost ? out - cost : 0;
}

Value AdmissionController::outstanding(const std::string& cls) const {
  std::lock_guard lock(mu_);
  auto it = outstanding_.find(cls);
  return it == outstanding_.end() ? 0 : it->second;
}

}  // namespace atp::server
