#include "baselines/pull_dummy.h"

#include <future>
#include <thread>

#include "common/blocking_queue.h"
#include "common/clock.h"
#include "common/thread_util.h"

namespace xt::baselines {
namespace {

/// A dummy pull worker: produces a payload copy when asked, parks it until
/// the driver pulls.
class DummyPullWorker {
 public:
  DummyPullWorker(std::uint16_t machine, const Bytes& payload_template,
                  const RpcTransport& transport)
      : machine_(machine), template_(payload_template), transport_(transport) {
    service_ = std::thread([this] {
      set_current_thread_name("dummy-pullw");
      service_loop();
    });
  }
  ~DummyPullWorker() { stop(); }

  void stop() {
    requests_.close();
    if (service_.joinable()) service_.join();
  }

  /// A stopped worker hands back an empty payload at once.
  [[nodiscard]] std::future<Bytes> produce_async() {
    std::promise<Bytes> reply;
    std::future<Bytes> result = reply.get_future();
    if (!requests_.push(std::move(reply))) {
      std::promise<Bytes> empty;  // the dropped request broke its promise
      empty.set_value({});
      result = empty.get_future();
    }
    return result;
  }

  [[nodiscard]] Bytes get(std::future<Bytes> result, RpcTransport& transport) {
    return transport.pull(machine_, result.get());
  }

 private:
  void service_loop() {
    while (auto reply = requests_.pop()) {
      Bytes data = template_;  // message materialization (the compute)
      transport_.pace_ipc(data.size());  // worker-side object-store copy
      reply->set_value(std::move(data));
    }
  }

  const std::uint16_t machine_;
  const Bytes& template_;
  const RpcTransport& transport_;
  BlockingQueue<std::promise<Bytes>> requests_;
  std::thread service_;
};

}  // namespace

DummyResult run_dummy_transmission_pullhub(const DummyConfig& config,
                                           const RpcConfig& rpc) {
  const auto n_machines =
      static_cast<std::uint16_t>(config.explorers_per_machine.size());
  RpcTransport transport(rpc);

  const Bytes payload_template = make_dummy_payload(
      config.message_bytes, config.compressible_payload, /*seed=*/42);

  std::vector<std::unique_ptr<DummyPullWorker>> workers;
  for (std::uint16_t m = 0; m < n_machines; ++m) {
    for (int i = 0; i < config.explorers_per_machine[m]; ++i) {
      workers.push_back(
          std::make_unique<DummyPullWorker>(m, payload_template, transport));
    }
  }

  DummyResult result;
  const Stopwatch clock;
  for (int round = 0; round < config.messages_per_explorer; ++round) {
    // Central logic: schedule every worker's task for this round...
    std::vector<std::future<Bytes>> results;
    results.reserve(workers.size());
    for (auto& worker : workers) results.push_back(worker->produce_async());
    // ...then ask for the data, one synchronous pull after another.
    for (std::size_t i = 0; i < workers.size(); ++i) {
      const Bytes data = workers[i]->get(std::move(results[i]), transport);
      ++result.messages_received;
      result.bytes_received += data.size();
    }
  }
  result.end_to_end_seconds = clock.elapsed_s();

  for (auto& worker : workers) worker->stop();
  result.cross_machine_bytes = transport.cross_machine_bytes();

  result.throughput_mbps = result.end_to_end_seconds > 0
                               ? static_cast<double>(result.bytes_received) /
                                     1e6 / result.end_to_end_seconds
                               : 0.0;
  return result;
}

}  // namespace xt::baselines
