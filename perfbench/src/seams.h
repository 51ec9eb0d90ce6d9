// Benchmark-owned decorators at the program's public seams.
//
//   * LatencyWrapper sits between a buffer (or the service's wrapper
//     export) and a concrete buffer::LxpWrapper. It injects the remote
//     source's latency as a real sleep and accounts for it separately, and
//     counts exchanges and response bytes. With tracing on it also times
//     the inner wrapper call (the wrapper's own CPU, sleep excluded).
//   * TracingTransport sits between a client::FramedDocument and its
//     service::wire::FrameTransport. It counts frames and bytes; with
//     tracing on it also re-runs the frame codec (wire::DecodeFrame +
//     EncodeFrame) on every request and response to price it per frame.
//
// Counting is always on (relaxed atomics); timing only when the shared
// trace flag is set, so untraced runs pay for neither clock reads nor
// codec re-runs.
#ifndef NAVBENCH_SEAMS_H_
#define NAVBENCH_SEAMS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "buffer/lxp.h"
#include "service/wire.h"

namespace navbench {

/// Wrapper counters, shared by every wrapper instance one stack builds.
struct WrapperTally {
  std::atomic<int64_t> exchanges{0};
  std::atomic<int64_t> bytes{0};
  std::atomic<int64_t> injected_ns{0};
  /// Inner-call time and the exchanges it covers (traced exchanges only).
  std::atomic<int64_t> inner_ns{0};
  std::atomic<int64_t> timed_exchanges{0};

  struct Snapshot {
    int64_t exchanges = 0, bytes = 0, injected_ns = 0, inner_ns = 0,
            timed_exchanges = 0;
    Snapshot operator-(const Snapshot& o) const;
  };
  Snapshot Read() const;
};

class LatencyWrapper : public mix::buffer::LxpWrapper {
 public:
  /// `latency_ns` is slept before every exchange (0: none). `serialize`
  /// runs the inner wrapper under a mutex (the sleep stays outside it), for
  /// instances the service exports to concurrent workers.
  LatencyWrapper(std::unique_ptr<mix::buffer::LxpWrapper> inner,
                 int64_t latency_ns, WrapperTally* tally,
                 const std::atomic<bool>* trace, bool serialize = false);

  mix::buffer::PushdownCapability Capability() const override {
    return inner_->Capability();
  }
  std::string GetRoot(const std::string& uri) override;
  mix::buffer::FragmentList Fill(const std::string& hole_id) override;
  mix::buffer::HoleFillList FillMany(
      const std::vector<std::string>& holes,
      const mix::buffer::FillBudget& budget) override;
  mix::Status TryGetRoot(const std::string& uri, std::string* out) override;
  mix::Status TryFill(const std::string& hole_id,
                      mix::buffer::FragmentList* out) override;
  mix::Status TryFillMany(const std::vector<std::string>& holes,
                          const mix::buffer::FillBudget& budget,
                          mix::buffer::HoleFillList* out) override;

 private:
  /// Sleeps, then runs `call` (timed when tracing), counting `bytes_of()`.
  template <typename Call, typename Bytes>
  auto Exchange(Call&& call, Bytes&& bytes_of);

  std::unique_ptr<mix::buffer::LxpWrapper> inner_;
  int64_t latency_ns_;
  WrapperTally* tally_;
  const std::atomic<bool>* trace_;
  bool serialize_;
  std::mutex mu_;
};

/// A fixed pool of connections to a remote LXP server, handed out round
/// robin: how a mediator reaches a remote source without a connection per
/// session. Each transport serializes its own exchanges (and pipelines
/// async ones), so sharing is safe.
class ConnectionPool {
 public:
  ConnectionPool(uint16_t port, int size);
  mix::service::wire::FrameTransport* Next();

 private:
  std::vector<std::unique_ptr<mix::service::wire::FrameTransport>> conns_;
  std::atomic<size_t> next_{0};
};

/// Frame counters of one client-side seam.
struct TransportTally {
  std::atomic<int64_t> frames{0};  ///< requests sent (= responses)
  std::atomic<int64_t> bytes{0};   ///< request + response bytes
  std::atomic<int64_t> codec_ns{0};
  std::atomic<int64_t> codec_frames{0};

  struct Snapshot {
    int64_t frames = 0, bytes = 0, codec_ns = 0, codec_frames = 0;
    Snapshot operator-(const Snapshot& o) const;
  };
  Snapshot Read() const;
};

class TracingTransport : public mix::service::wire::FrameTransport {
 public:
  /// Borrows `inner`.
  TracingTransport(mix::service::wire::FrameTransport* inner,
                   TransportTally* tally, const std::atomic<bool>* trace);
  /// Owns `inner` (a routed fleet transport minted per client document).
  TracingTransport(std::unique_ptr<mix::service::wire::FrameTransport> inner,
                   TransportTally* tally, const std::atomic<bool>* trace);

  mix::Result<std::string> RoundTrip(const std::string& request) override;

 private:
  void TimeCodec(const std::string& frame_bytes);

  std::unique_ptr<mix::service::wire::FrameTransport> owned_;
  mix::service::wire::FrameTransport* inner_;
  TransportTally* tally_;
  const std::atomic<bool>* trace_;
};

}  // namespace navbench

#endif  // NAVBENCH_SEAMS_H_
