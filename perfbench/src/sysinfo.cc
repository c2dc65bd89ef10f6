#include "sysinfo.h"

#include <malloc.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

namespace perfbench {

namespace {

// Value of a "Key:   <number>" line of /proc/self/status, or -1.
long StatusField(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  long value = -1;
  const size_t klen = std::strlen(key);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, klen) == 0 && line[klen] == ':') {
      value = std::strtol(line + klen + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return value;
}

}  // namespace

int NumCpus() {
  long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

uint64_t L3Bytes() {
  std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string text;
  if (in >> text && !text.empty()) {
    uint64_t v = std::stoull(text);
    char unit = text.back();
    if (unit == 'K') v <<= 10;
    if (unit == 'M') v <<= 20;
    return v;
  }
  long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return v > 0 ? static_cast<uint64_t>(v) : 0;
}

double ResidentMb() {
  malloc_trim(0);
  long kb = StatusField("VmRSS");
  return kb < 0 ? 0 : static_cast<double>(kb) / 1024.0;
}

int ThreadCount() {
  long n = StatusField("Threads");
  return n < 0 ? 0 : static_cast<int>(n);
}

}  // namespace perfbench
