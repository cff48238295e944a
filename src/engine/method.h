// The paper's method matrix (Table 1).
//
//                      On-line
//   Off-line           CC                     DC
//   ------------------------------------------------------------
//   no chopping        SR baseline            DC baseline
//   SR-chopping        SR (Shasha)            ESR^1  = Method 1
//   ESR-chopping       ESR^2 = Method 2       ESR^3  = Method 3
#pragma once

#include <cstdint>
#include <string>

#include "sched/database.h"

namespace atp {

enum class ChopMode : std::uint8_t { None, SR, ESR };

inline const char* to_string(ChopMode m) noexcept {
  switch (m) {
    case ChopMode::None: return "none";
    case ChopMode::SR: return "SR-chop";
    case ChopMode::ESR: return "ESR-chop";
  }
  return "?";
}

enum class DistPolicy : std::uint8_t { Static, Dynamic };

inline const char* to_string(DistPolicy p) noexcept {
  return p == DistPolicy::Static ? "static" : "dynamic";
}

struct MethodConfig {
  ChopMode chop = ChopMode::None;
  SchedulerKind sched = SchedulerKind::CC;
  DistPolicy dist = DistPolicy::Static;  ///< eps-spec distribution (DC only)

  [[nodiscard]] static MethodConfig baseline_sr() noexcept {
    return {ChopMode::None, SchedulerKind::CC, DistPolicy::Static};
  }
  [[nodiscard]] static MethodConfig baseline_dc() noexcept {
    return {ChopMode::None, SchedulerKind::DC, DistPolicy::Static};
  }
  /// Shasha et al.: SR-chopping under plain concurrency control.
  [[nodiscard]] static MethodConfig sr_chop_cc() noexcept {
    return {ChopMode::SR, SchedulerKind::CC, DistPolicy::Static};
  }
  /// Method 1: SR-chopping under divergence control (ESR^1).
  [[nodiscard]] static MethodConfig method1(
      DistPolicy d = DistPolicy::Static) noexcept {
    return {ChopMode::SR, SchedulerKind::DC, d};
  }
  /// Method 2: ESR-chopping under concurrency control (ESR^2).
  [[nodiscard]] static MethodConfig method2() noexcept {
    return {ChopMode::ESR, SchedulerKind::CC, DistPolicy::Static};
  }
  /// Method 3: ESR-chopping under divergence control (ESR^3).
  [[nodiscard]] static MethodConfig method3(
      DistPolicy d = DistPolicy::Static) noexcept {
    return {ChopMode::ESR, SchedulerKind::DC, d};
  }

  [[nodiscard]] std::string name() const {
    std::string s = to_string(chop);
    s += "+";
    s += to_string(sched);
    if (sched == SchedulerKind::DC && chop != ChopMode::None) {
      s += "/";
      s += to_string(dist);
    }
    return s;
  }
};

}  // namespace atp
