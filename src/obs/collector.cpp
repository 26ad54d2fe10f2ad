#include "obs/collector.hpp"

namespace strassen::obs::detail {

constinit thread_local Collector* tl_collector = nullptr;

}  // namespace strassen::obs::detail
