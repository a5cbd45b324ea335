// Dev tool: print a backtrace for every allocation inside one warm fuzzed
// schedule, to locate residual allocation sites.
#include <cstdio>
#include <cstdlib>
#include <execinfo.h>
#include <new>

#include "harness/cluster.hpp"
#include "scenario/executor.hpp"
#include "scenario/generator.hpp"

static bool g_trace = false;

// All three out of line: where GCC inlines only one side of a new/delete
// pair it sees malloc matched with operator delete, or operator new with
// free, and reports a false -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(size_t n) {
  if (g_trace) {
    g_trace = false;
    void* frames[16];
    int depth = backtrace(frames, 16);
    backtrace_symbols_fd(frames, depth, 2);
    std::fprintf(stderr, "---- (%zu bytes)\n", n);
    g_trace = true;
  }
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, size_t) noexcept { std::free(p); }

using namespace gmpx;
using namespace gmpx::scenario;

int main(int argc, char** argv) {
  const char* fdname = argc > 1 ? argv[1] : "oracle";
  uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 9;
  GeneratorOptions gen;
  gen.profile = Profile::kMixed;
  gen.n = 5;
  ExecOptions exec;
  if (fdname[0] == 'h') {
    exec.fd = fd::DetectorKind::kHeartbeat;
    gen = tuned_for_heartbeat(gen, exec.heartbeat);
  }
  gmpx::harness::Cluster cluster{gmpx::harness::ClusterOptions{}};
  for (uint64_t s = 100; s < 160; ++s) execute(generate(s, gen), exec, cluster);
  Schedule s = generate(seed, gen);
  g_trace = true;
  execute(s, exec, cluster);
  g_trace = false;
  return 0;
}
