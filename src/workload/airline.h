// Airline reservation workload (the paper's second motivating domain:
// "airline reservation systems often require a limit for each reservation").
//
//   * reserve ETs take one seat on a flight and post the fare to the revenue
//     ledger: add(seats_f, -1) ; add(revenue_f, +fare).  The fare is bounded
//     by the route's price cap -- the off-line C-edge weight.
//   * availability queries scan the seat counts of a sample of flights.
//   * revenue reports read every revenue cell; their serializable ground
//     truth is not invariant (reservations create revenue), so reports carry
//     no expected result -- they exercise the fuzziness accounting, not the
//     error oracle.
//   * a seat+revenue consistency check ("books balance": seats sold x mean
//     fare vs ledger) is modelled as a global query over both item classes,
//     creating the SC-cycle that separates SR- from ESR-chopping, exactly
//     like banking's global audit.
#pragma once

#include <cstdint>

#include "workload/workload.h"

namespace atp {

struct AirlineConfig {
  std::size_t flights = 32;
  Value seats_per_flight = 200;
  Value price_cap = 500;         ///< max fare (C-edge weight)
  double availability_fraction = 0.2;  ///< of instances
  double report_fraction = 0.05;       ///< of instances (global query)
  std::size_t availability_scan = 8;   ///< flights per availability query
  double zipf_theta = 0.6;       ///< popular-flight skew
  Value update_epsilon = 1000;   ///< Limit_t of reservations
  Value query_epsilon = 2000;    ///< Limit_t of queries (import)
  double rollback_probability = 0.0;   ///< sold-out rollbacks
};

[[nodiscard]] constexpr Key airline_seats_key(std::size_t flight) noexcept {
  return 2'000'000 + static_cast<Key>(flight);
}
[[nodiscard]] constexpr Key airline_revenue_key(std::size_t flight) noexcept {
  return 3'000'000 + static_cast<Key>(flight);
}
[[nodiscard]] constexpr Key airline_seats_class() noexcept {
  return 900'100'000;
}
[[nodiscard]] constexpr Key airline_revenue_class() noexcept {
  return 900'100'001;
}

[[nodiscard]] Workload make_airline(const AirlineConfig& config,
                                    std::size_t n_instances,
                                    std::uint64_t seed);

}  // namespace atp
