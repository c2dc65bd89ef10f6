// Host facts the benchmark records beside every result.
#ifndef PERFBENCH_SYSINFO_H_
#define PERFBENCH_SYSINFO_H_

#include <cstdint>

namespace perfbench {

int NumCpus();
/// Last-level (L3) cache size in bytes, 0 if unknown.
uint64_t L3Bytes();
/// Resident set of this process in MB, after returning freed heap to the OS.
double ResidentMb();
/// Threads of this process right now (0 if unknown).
int ThreadCount();

}  // namespace perfbench

#endif  // PERFBENCH_SYSINFO_H_
