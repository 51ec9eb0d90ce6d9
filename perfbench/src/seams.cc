#include "seams.h"

#include <chrono>
#include <thread>

#include "env.h"
#include "script.h"

namespace navbench {

namespace wire = mix::service::wire;
using mix::buffer::FillBudget;
using mix::buffer::FragmentList;
using mix::buffer::HoleFillList;

WrapperTally::Snapshot WrapperTally::Snapshot::operator-(
    const Snapshot& o) const {
  return {exchanges - o.exchanges, bytes - o.bytes,
          injected_ns - o.injected_ns, inner_ns - o.inner_ns,
          timed_exchanges - o.timed_exchanges};
}

WrapperTally::Snapshot WrapperTally::Read() const {
  return {exchanges.load(), bytes.load(), injected_ns.load(), inner_ns.load(),
          timed_exchanges.load()};
}

LatencyWrapper::LatencyWrapper(std::unique_ptr<mix::buffer::LxpWrapper> inner,
                               int64_t latency_ns, WrapperTally* tally,
                               const std::atomic<bool>* trace, bool serialize)
    : inner_(std::move(inner)),
      latency_ns_(latency_ns),
      tally_(tally),
      trace_(trace),
      serialize_(serialize) {}

template <typename Call, typename Bytes>
auto LatencyWrapper::Exchange(Call&& call, Bytes&& bytes_of) {
  if (latency_ns_ > 0) {
    int64_t t0 = NowNs();
    std::this_thread::sleep_for(std::chrono::nanoseconds(latency_ns_));
    tally_->injected_ns.fetch_add(NowNs() - t0, std::memory_order_relaxed);
  }
  std::unique_lock<std::mutex> lock(mu_, std::defer_lock);
  if (serialize_) lock.lock();
  const bool timed = trace_->load(std::memory_order_relaxed);
  int64_t t0 = timed ? NowNs() : 0;
  auto result = call();
  if (timed) {
    tally_->inner_ns.fetch_add(NowNs() - t0, std::memory_order_relaxed);
    tally_->timed_exchanges.fetch_add(1, std::memory_order_relaxed);
  }
  tally_->exchanges.fetch_add(1, std::memory_order_relaxed);
  tally_->bytes.fetch_add(bytes_of(result), std::memory_order_relaxed);
  return result;
}

std::string LatencyWrapper::GetRoot(const std::string& uri) {
  return Exchange([&] { return inner_->GetRoot(uri); },
                  [](const std::string& id) {
                    return static_cast<int64_t>(id.size());
                  });
}

FragmentList LatencyWrapper::Fill(const std::string& hole_id) {
  return Exchange([&] { return inner_->Fill(hole_id); },
                  [](const FragmentList& l) {
                    return mix::buffer::FragmentListByteSize(l);
                  });
}

HoleFillList LatencyWrapper::FillMany(const std::vector<std::string>& holes,
                                      const FillBudget& budget) {
  return Exchange([&] { return inner_->FillMany(holes, budget); },
                  [](const HoleFillList& l) {
                    return mix::buffer::HoleFillListByteSize(l);
                  });
}

mix::Status LatencyWrapper::TryGetRoot(const std::string& uri,
                                       std::string* out) {
  return Exchange([&] { return inner_->TryGetRoot(uri, out); },
                  [out](const mix::Status&) {
                    return static_cast<int64_t>(out->size());
                  });
}

mix::Status LatencyWrapper::TryFill(const std::string& hole_id,
                                    FragmentList* out) {
  return Exchange([&] { return inner_->TryFill(hole_id, out); },
                  [out](const mix::Status&) {
                    return mix::buffer::FragmentListByteSize(*out);
                  });
}

mix::Status LatencyWrapper::TryFillMany(const std::vector<std::string>& holes,
                                        const FillBudget& budget,
                                        HoleFillList* out) {
  return Exchange([&] { return inner_->TryFillMany(holes, budget, out); },
                  [out](const mix::Status&) {
                    return mix::buffer::HoleFillListByteSize(*out);
                  });
}

ConnectionPool::ConnectionPool(uint16_t port, int size) {
  for (int i = 0; i < size; ++i) {
    conns_.push_back(Connect(port));
  }
}

wire::FrameTransport* ConnectionPool::Next() {
  return conns_[next_.fetch_add(1, std::memory_order_relaxed) %
                conns_.size()]
      .get();
}

TransportTally::Snapshot TransportTally::Snapshot::operator-(
    const Snapshot& o) const {
  return {frames - o.frames, bytes - o.bytes, codec_ns - o.codec_ns,
          codec_frames - o.codec_frames};
}

TransportTally::Snapshot TransportTally::Read() const {
  return {frames.load(), bytes.load(), codec_ns.load(), codec_frames.load()};
}

TracingTransport::TracingTransport(wire::FrameTransport* inner,
                                   TransportTally* tally,
                                   const std::atomic<bool>* trace)
    : inner_(inner), tally_(tally), trace_(trace) {}

TracingTransport::TracingTransport(std::unique_ptr<wire::FrameTransport> inner,
                                   TransportTally* tally,
                                   const std::atomic<bool>* trace)
    : owned_(std::move(inner)),
      inner_(owned_.get()),
      tally_(tally),
      trace_(trace) {}

void TracingTransport::TimeCodec(const std::string& frame_bytes) {
  int64_t t0 = NowNs();
  auto frame = wire::DecodeFrame(frame_bytes);
  if (frame.ok()) {
    std::string again = wire::EncodeFrame(frame.value());
    (void)again;
  }
  tally_->codec_ns.fetch_add(NowNs() - t0, std::memory_order_relaxed);
  tally_->codec_frames.fetch_add(1, std::memory_order_relaxed);
}

mix::Result<std::string> TracingTransport::RoundTrip(
    const std::string& request) {
  const bool timed = trace_->load(std::memory_order_relaxed);
  if (timed) TimeCodec(request);
  mix::Result<std::string> response = inner_->RoundTrip(request);
  tally_->frames.fetch_add(1, std::memory_order_relaxed);
  int64_t bytes = static_cast<int64_t>(request.size());
  if (response.ok()) {
    bytes += static_cast<int64_t>(response.value().size());
    if (timed) TimeCodec(response.value());
  }
  tally_->bytes.fetch_add(bytes, std::memory_order_relaxed);
  return response;
}

}  // namespace navbench
