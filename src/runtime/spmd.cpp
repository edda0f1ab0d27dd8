#include "runtime/spmd.hpp"

#include <exception>
#include <thread>
#include <vector>

#include "support/require.hpp"

namespace ulba::runtime {

void spmd_run(int size, const std::function<void(Comm&)>& body) {
  ULBA_REQUIRE(size >= 1, "SPMD run needs at least one rank");
  ULBA_REQUIRE(body != nullptr, "SPMD body must be callable");

  World world(size);
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(size));
  const auto run_rank = [&world, &body, &errors](int r) {
    try {
      Comm comm(world, r);
      body(comm);
    } catch (...) {
      errors[static_cast<std::size_t>(r)] = std::current_exception();
    }
  };

  {
    std::vector<std::jthread> peers;
    peers.reserve(static_cast<std::size_t>(size - 1));
    for (int r = 1; r < size; ++r) peers.emplace_back(run_rank, r);
    run_rank(0);
  }  // jthreads join here

  for (const auto& err : errors)
    if (err) std::rethrow_exception(err);
}

}  // namespace ulba::runtime
