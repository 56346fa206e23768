#include "common/stats.hpp"

#include <cmath>
#include <cstdio>

namespace latdiv {

double geomean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

std::string fixed(double value, int decimals) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
  return buf;
}

}  // namespace latdiv
