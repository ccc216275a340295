#include "util/parallel.h"

#include <algorithm>
#include <thread>

namespace trial {

size_t HardwareThreads() {
  size_t n = std::thread::hardware_concurrency();
  if (n == 0) n = 1;
  return std::min<size_t>(n, 256);
}

}  // namespace trial
