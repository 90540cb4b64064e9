#include "src/sim/sweep.hpp"

#include <cassert>

namespace mmtag::sim {

std::vector<double> linspace(double first, double last, int count) {
  assert(count >= 1);
  std::vector<double> values;
  values.reserve(static_cast<std::size_t>(count));
  if (count == 1) {
    values.push_back(first);
    return values;
  }
  for (int i = 0; i < count; ++i) {
    values.push_back(first + (last - first) * i / (count - 1));
  }
  return values;
}

}  // namespace mmtag::sim
