#include "lb/partitioners.hpp"

#include <stdexcept>

namespace ulba::lb {

std::unique_ptr<Partitioner> make_partitioner(const std::string& name) {
  if (name == "greedy") return std::make_unique<Partitioner>();
  throw std::invalid_argument("unknown partitioner '" + name +
                              "' (accepted: greedy)");
}

}  // namespace ulba::lb
