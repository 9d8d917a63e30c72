// Machine context recorded next to every result.
#pragma once

namespace perfbench {

/// Online CPUs (nproc).
int online_cpus();

/// Cores the process really gets: `threads` threads each spin a fixed
/// amount of work, against one thread alone; returns threads * t1 / tN.
/// On an idle machine with >= `threads` cores this is about `threads`.
double effective_cores(int threads);

}  // namespace perfbench
