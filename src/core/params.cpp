#include "core/params.hpp"

#include <cmath>

#include "support/require.hpp"

namespace ulba::core {

void ModelParams::validate() const {
  ULBA_REQUIRE(P >= 1, "need at least one PE");
  ULBA_REQUIRE(N >= 0 && N < P,
               "overloading PEs must number in [0, P) — N == P means nobody "
               "can absorb the unloaded work");
  ULBA_REQUIRE(gamma >= 1, "application must run at least one iteration");
  ULBA_REQUIRE(std::isfinite(w0) && std::isfinite(a) && std::isfinite(m) &&
                   std::isfinite(omega) && std::isfinite(lb_cost),
               "w0, a, m, omega and lb_cost must be finite");
  ULBA_REQUIRE(w0 >= 0.0, "initial workload must be non-negative");
  ULBA_REQUIRE(a >= 0.0, "average increase rate must be non-negative");
  ULBA_REQUIRE(m >= 0.0, "extra increase rate must be non-negative");
  ULBA_REQUIRE(alpha >= 0.0 && alpha <= 1.0, "alpha must lie in [0, 1]");
  ULBA_REQUIRE(omega > 0.0, "PE speed must be positive");
  ULBA_REQUIRE(lb_cost >= 0.0, "LB cost must be non-negative");
}

}  // namespace ulba::core
