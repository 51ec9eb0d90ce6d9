// Executes a client navigation script against any Navigable — the lazy
// mediator's own document, a service Session's document or a framed client
// document — and checks every answer against the reference answer.
//
// Partial browses are compared label by label along the same child-index
// path on the reference document (the executor walks the reference tree in
// lockstep); FetchSubtree exports are compared with the reference subtree
// node by node, which is the term comparison without rendering (oracle.h).
// A typed error (the probe reports a non-OK Status after a command) stops
// the script: the caller closes the session and counts it as failed.
#ifndef NAVBENCH_SCRIPT_H_
#define NAVBENCH_SCRIPT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "client/framed_document.h"
#include "core/navigable.h"
#include "core/status.h"
#include "inputs.h"
#include "oracle.h"

namespace navbench {

struct ScriptResult {
  /// False when a command ended in a typed error (`error` says which).
  bool ok = true;
  std::string error;
  /// Non-empty when an answer differed from the reference.
  std::string mismatch;
  /// Navigation commands issued (Root and Fetch(root) included).
  int64_t commands = 0;
  /// Steady-clock ns at which Fetch(root) returned: the first node.
  int64_t first_node_ns = 0;
};

/// Optional per-command outputs.
struct CommandSink {
  /// Latency of every command, appended in ns.
  std::vector<int64_t>* latency_ns = nullptr;
  /// Sum of command latencies in ns.
  int64_t* total_ns = nullptr;
  /// Every answer seen, rendered; equal transcripts = identical answers.
  std::string* transcript = nullptr;
};

/// Reports the typed error a command latched (OK when none).
using StatusProbe = std::function<mix::Status()>;

/// Runs Root(), Fetch(root), then `steps`.
ScriptResult RunScript(mix::Navigable* doc, const std::vector<Step>& steps,
                       const PoolQuery& reference, const StatusProbe& probe,
                       const CommandSink& sink);

/// Runs `steps` as one client session on a framed document: the opened
/// document's latched status is the probe, and the session is closed after
/// the script, on an error too. A failed open or close is a typed error.
ScriptResult RunClientSession(
    mix::Result<std::unique_ptr<mix::client::FramedDocument>> opened,
    const std::vector<Step>& steps, const PoolQuery& reference,
    const CommandSink& sink);

int64_t NowNs();

}  // namespace navbench

#endif  // NAVBENCH_SCRIPT_H_
