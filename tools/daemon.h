// The shared life cycle of the bfdn_serve and bfdn_route daemons: drain
// on SIGTERM / SIGINT, publish the bound port, wait, drain, and print
// the final stats document.
#pragma once

#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "support/check.h"

namespace bfdn {

// Signal handlers may only touch lock-free atomics; the main loop polls.
inline volatile std::sig_atomic_t g_drain_requested = 0;

extern "C" inline void handle_drain_signal(int) { g_drain_requested = 1; }

/// Runs one `Server` (ServiceServer or RouterServer) until SIGTERM or
/// SIGINT: starts it, writes its port to `port_file` (when non-empty),
/// prints "<name> listening on 127.0.0.1:<port><banner_suffix>", then
/// on the signal prints "<name>: drain requested, <drain_note>" to
/// stderr, drains, and prints the stats JSON as the last stdout line.
/// Returns the process exit code.
template <typename Server, typename Options>
int serve_until_signalled(const char* name, const Options& options,
                          const std::string& port_file,
                          const std::string& banner_suffix,
                          const char* drain_note) {
  // Handlers go in before the port is bound: a supervisor may signal
  // the moment --port-file appears, and that must drain, not kill.
  std::signal(SIGTERM, handle_drain_signal);
  std::signal(SIGINT, handle_drain_signal);
  Server server(options);
  server.start();

  if (!port_file.empty()) {
    std::ofstream out(port_file);
    BFDN_REQUIRE(out.good(), "cannot open --port-file " + port_file);
    out << server.port() << "\n";
  }
  std::fprintf(stdout, "%s listening on 127.0.0.1:%u%s\n", name,
               server.port(), banner_suffix.c_str());
  std::fflush(stdout);

  while (g_drain_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::fprintf(stderr, "%s: drain requested, %s\n", name, drain_note);
  server.drain();
  // Final stats flush: one JSON document, same shape as the protocol's
  // stats response payload.
  std::fprintf(stdout, "%s\n", server.stats_json().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace bfdn
