// Payroll workload (the paper's third bounded-update example: "a payroll
// system may limit the salary raise for each employee per year").
//
//   * raise ETs move a bounded amount from a department's raise budget into
//     one employee's salary cell: add(budget_d, -amount); add(salary_e,
//     +amount).  Because raises draw from budgets, total compensation
//     dollars are invariant -- the global compensation report has an exact
//     serializable ground truth, like banking's global audit.
//   * department reports read one department's salaries (query ETs).
//   * the global compensation report reads every budget and salary cell.
#pragma once

#include <cstdint>

#include "workload/workload.h"

namespace atp {

struct PayrollConfig {
  std::size_t departments = 4;
  std::size_t employees_per_dept = 32;
  Value initial_salary = 50000;
  Value dept_budget = 100000;
  Value raise_cap = 5000;        ///< per-raise bound (C-edge weight)
  double dept_report_fraction = 0.15;
  double global_report_fraction = 0.05;
  double zipf_theta = 0.0;
  Value update_epsilon = 10000;  ///< Limit_t of raises
  Value query_epsilon = 20000;   ///< Limit_t of reports (import)
};

[[nodiscard]] constexpr Key payroll_salary_key(std::size_t dept,
                                               std::size_t emp) noexcept {
  return 4'000'000 + static_cast<Key>(dept) * 10'000 + emp;
}
[[nodiscard]] constexpr Key payroll_budget_key(std::size_t dept) noexcept {
  return 5'000'000 + static_cast<Key>(dept);
}
[[nodiscard]] constexpr Key payroll_salary_class(std::size_t dept) noexcept {
  return 900'200'000 + static_cast<Key>(dept);
}
[[nodiscard]] constexpr Key payroll_budget_class(std::size_t dept) noexcept {
  return 900'300'000 + static_cast<Key>(dept);
}

[[nodiscard]] Workload make_payroll(const PayrollConfig& config,
                                    std::size_t n_instances,
                                    std::uint64_t seed);

}  // namespace atp
