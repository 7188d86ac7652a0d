// Names the calling thread for ps/top/perf and /proc/<pid>/task/*/comm, so
// per-thread CPU and context switches can be told apart by role from
// outside the process. Linux keeps at most 15 characters; longer names are
// cut. Best effort: a failure leaves the inherited name.
#pragma once

#include <pthread.h>

#include <string>

namespace blockdag {

inline void name_this_thread(const std::string& name) {
  ::pthread_setname_np(::pthread_self(), name.substr(0, 15).c_str());
}

}  // namespace blockdag
