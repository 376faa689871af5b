// daemon_mixed: an in-process Daemon + AllocatorService over a Unix socket,
// with the shipped oefd defaults and checkpointing on, so every ack is
// durable. 32 tenants are registered in set-up; then a closed loop runs two
// writer clients and one reader client for the time budget:
//   * each writer sends update_demand for tenants it owns, and one op in 20,
//     drawn from the writer's seeded stream, is a remove-then-add of one of
//     them (under a new name); drawn rather than every 20th, so the two
//     writers' remove-then-adds do not fall into step with each other,
//   * the reader sends query_allocation back to back.
//
// It is the only workload through the protocol, the socket, queueing and
// coalescing, checkpoint-before-ack and lock-free snapshot reads. Reads run
// beside writes, so a change that speeds acks at the readers' expense shows.
// Writers own disjoint tenants, so the expected final tenant set follows from
// the acked operations alone. The traced run also replays the acked op stream
// (its first 1000 requests) through AllocatorService::handle with no socket,
// rewrites the daemon's last checkpoint payload, and times the protocol codec
// on the run's messages.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/properties.h"
#include "harness.h"
#include "instances.h"
#include "service/checkpoint.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/protocol.h"
#include "service/service.h"

namespace perfbench {

namespace {

using oef::service::AllocatorClient;
using oef::service::ClientOptions;
using oef::service::MessageType;
using oef::service::Request;
using oef::service::Response;
using oef::service::StatusCode;

/// GPU devices per type behind the daemon (bench_service's cluster).
const std::vector<double> kDaemonCapacities = {8.0, 4.0, 4.0};

struct Served {
  std::string dir;
  std::unique_ptr<oef::service::AllocatorService> service;
  std::unique_ptr<oef::service::Daemon> daemon;  // declared last: stops first
};

oef::service::ServiceOptions service_options(const std::string& checkpoint_path) {
  oef::service::ServiceOptions options;  // oefd's defaults
  options.capacities = kDaemonCapacities;
  options.checkpoint_path = checkpoint_path;
  return options;
}

Request make_request(MessageType type, std::string tenant, std::vector<double> demand = {}) {
  Request request;
  request.type = type;
  request.tenant = std::move(tenant);
  request.demand = std::move(demand);
  return request;
}

/// A request the daemon acknowledged, with the instant of its ack.
struct AckedRequest {
  double acked_at = 0.0;
  Request request;
};

/// One writer client's view: the tenants it owns and their current rows.
struct WriterState {
  std::map<std::string, std::vector<double>> tenants;
  std::vector<std::string> slots;  // slot -> current tenant name
  std::vector<double> latencies_ms;
  std::vector<double> churn_latencies_ms;  // the remove-then-add ops among them
  std::vector<AckedRequest> acked;
  std::size_t ops = 0;
  std::size_t failed_ops = 0;
  std::uint64_t retries = 0;
};

/// A tenant name: the owning writer, its slot, and the writer's count of
/// remove-then-adds when it was registered (0 at set-up).
std::string tenant_name(std::size_t writer, std::size_t slot, std::size_t generation) {
  std::string name = "w";
  name += std::to_string(writer);
  name += "-s";
  name += std::to_string(slot);
  name += "-g";
  name += std::to_string(generation);
  return name;
}

bool snapshot_fits(const oef::service::WireSnapshot& snapshot) {
  std::vector<double> used(kDaemonCapacities.size(), 0.0);
  for (const auto& row : snapshot.shares) {
    if (row.size() != used.size()) return false;
    for (std::size_t j = 0; j < row.size(); ++j) used[j] += row[j];
  }
  for (std::size_t j = 0; j < used.size(); ++j) {
    if (used[j] > kDaemonCapacities[j] + 1e-7) return false;
  }
  return true;
}

}  // namespace

void run_daemon_mixed(const RunOptions& options, Tracer& tracer, Report& report) {
  namespace fs = std::filesystem;
  const std::size_t tenants = options.tenants != 0 ? options.tenants : options.tiny ? 6 : 32;
  const std::size_t writers = 2;
  const std::size_t churn_every = 20;
  const std::size_t setup_reps = 9;
  const std::size_t k = kDaemonCapacities.size();

  // Initial registration, owned round-robin by the writers.
  std::vector<WriterState> state(writers);
  std::vector<Request> registration;
  {
    oef::common::Rng rng(options.seed);
    for (std::size_t t = 0; t < tenants; ++t) {
      const std::size_t w = t % writers;
      const std::string name = tenant_name(w, state[w].slots.size(), 0);
      registration.push_back(make_request(MessageType::kAddTenant, name, random_row(rng, k)));
      state[w].slots.push_back(name);
      state[w].tenants[name] = registration.back().demand;
    }
  }

  // Set-up: daemon start and registration, repeated; the last one serves.
  std::vector<double> setup_seconds;
  std::unique_ptr<Served> served;
  for (std::size_t rep = 0; rep < setup_reps; ++rep) {
    auto span = tracer.span("service", "start_and_register");
    served.reset();
    const double start = now_seconds();
    auto next = std::make_unique<Served>();
    next->dir = options.scratch_dir + "/daemon" + std::to_string(rep);
    fs::create_directories(next->dir);
    next->service = std::make_unique<oef::service::AllocatorService>(
        service_options(next->dir + "/oefd.ckpt"));
    oef::service::DaemonOptions daemon_options;
    daemon_options.socket_path = next->dir + "/oefd.sock";
    next->daemon = std::make_unique<oef::service::Daemon>(*next->service, daemon_options);
    next->daemon->start();
    ClientOptions client_options;
    client_options.socket_path = daemon_options.socket_path;
    AllocatorClient client(client_options);
    bool registered = true;
    for (const Request& request : registration) {
      registered = registered && client.call(request).status == StatusCode::kOk;
    }
    setup_seconds.push_back(now_seconds() - start);
    report.check(registered, "daemon_mixed: a set-up registration was not acked");
    served = std::move(next);
  }
  const std::string socket_path = served->dir + "/oefd.sock";

  // Closed loop.
  std::atomic<bool> stop{false};
  std::vector<double> query_ms;
  std::size_t queries_failed = 0;
  double efficiency_sum = 0.0;
  const auto writer_loop = [&](std::size_t w) {
    WriterState& me = state[w];
    std::uint64_t seed_state = options.seed + 0x100 * (w + 1);
    oef::common::Rng rng(oef::common::splitmix64(seed_state));
    ClientOptions client_options;
    client_options.socket_path = socket_path;
    client_options.seed = 11 + w;
    AllocatorClient client(client_options);
    std::size_t generation = 0;
    while (!stop.load()) {
      const auto slot = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(me.slots.size()) - 1));
      const std::string name = me.slots[slot];
      std::vector<Request> requests;
      if (rng.uniform_int(0, static_cast<std::int64_t>(churn_every) - 1) == 0) {
        requests.push_back(make_request(MessageType::kRemoveTenant, name));
        const std::string fresh = tenant_name(w, slot, ++generation);
        requests.push_back(make_request(MessageType::kAddTenant, fresh, random_row(rng, k)));
      } else {
        requests.push_back(make_request(MessageType::kUpdateDemand, name, random_row(rng, k)));
      }
      ++me.ops;
      const double start = now_seconds();
      bool acked = true;
      for (Request& request : requests) {
        const Response response = client.call(request);
        if (response.status != StatusCode::kOk) {
          acked = false;
          break;
        }
        request.request_id = response.request_id;
        me.acked.push_back({now_seconds(), request});
        if (request.type == MessageType::kRemoveTenant) {
          me.tenants.erase(request.tenant);
        } else {
          me.tenants[request.tenant] = request.demand;
          me.slots[slot] = request.tenant;
        }
      }
      if (acked) {
        me.latencies_ms.push_back((now_seconds() - start) * 1e3);
        if (requests.size() > 1) me.churn_latencies_ms.push_back(me.latencies_ms.back());
      } else {
        ++me.failed_ops;
      }
    }
    me.retries = client.retries();
  };
  const auto reader_loop = [&] {
    ClientOptions client_options;
    client_options.socket_path = socket_path;
    client_options.seed = 7;
    AllocatorClient client(client_options);
    while (!stop.load()) {
      Request query;
      query.type = MessageType::kQueryAllocation;
      const double start = now_seconds();
      Response response = client.call(query);
      const double elapsed = now_seconds() - start;
      if (response.status == StatusCode::kOk && response.has_snapshot &&
          snapshot_fits(response.snapshot)) {
        query_ms.push_back(elapsed * 1e3);
        efficiency_sum += response.snapshot.total_efficiency;
      } else {
        ++queries_failed;
      }
    }
  };

  double loop_seconds = 0.0;
  {
    auto span = tracer.span("service", "closed_loop");
    const double start = now_seconds();
    std::vector<std::thread> threads;
    for (std::size_t w = 0; w < writers; ++w) threads.emplace_back(writer_loop, w);
    threads.emplace_back(reader_loop);
    while (now_seconds() - start < options.seconds) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    stop.store(true);
    for (std::thread& thread : threads) thread.join();
    loop_seconds = now_seconds() - start;
  }

  // Final state: the daemon's tenant set must equal the acked sequence, and
  // its allocation must fit and be envy-free.
  Response final_state;
  {
    auto span = tracer.span("service", "final_query");
    ClientOptions client_options;
    client_options.socket_path = socket_path;
    AllocatorClient client(client_options);
    Request query;
    query.type = MessageType::kQueryAllocation;
    final_state = client.call(query);
  }
  std::map<std::string, std::vector<double>> expected;
  std::set<std::string> expected_names, served_names;
  {
    auto check_span = tracer.span("bench", "check");
    for (const WriterState& w : state) expected.insert(w.tenants.begin(), w.tenants.end());
    const oef::service::WireSnapshot& snapshot = final_state.snapshot;
    served_names.insert(snapshot.tenants.begin(), snapshot.tenants.end());
    for (const auto& [name, row] : expected) expected_names.insert(name);
    report.check(final_state.status == StatusCode::kOk && final_state.has_snapshot,
                 "daemon_mixed: final query failed");
    report.check(served_names == expected_names,
                 "daemon_mixed: final tenant set differs from the acked add/remove sequence");
    report.check(snapshot_fits(snapshot), "daemon_mixed: final allocation exceeds capacity");
    if (served_names == expected_names && snapshot.quality == StatusCode::kOk) {
      std::vector<std::vector<double>> rows;
      for (const std::string& name : snapshot.tenants) rows.push_back(expected.at(name));
      const oef::core::EnvyReport envy = oef::core::check_envy_freeness(
          oef::core::SpeedupMatrix(std::move(rows)), oef::core::Allocation(snapshot.shares));
      report.check(envy.envy_free, "daemon_mixed: final allocation not envy-free");
    }
    report.check(!query_ms.empty(), "daemon_mixed: the reader completed no query");
  }

  std::vector<double> update_ms;
  std::vector<double> churn_ms;
  std::vector<AckedRequest> acked;
  std::size_t writer_ops = 0, writer_failed = 0;
  std::uint64_t retries = 0;
  for (const WriterState& w : state) {
    update_ms.insert(update_ms.end(), w.latencies_ms.begin(), w.latencies_ms.end());
    churn_ms.insert(churn_ms.end(), w.churn_latencies_ms.begin(), w.churn_latencies_ms.end());
    acked.insert(acked.end(), w.acked.begin(), w.acked.end());
    writer_ops += w.ops;
    writer_failed += w.failed_ops;
    retries += w.retries;
  }
  std::sort(acked.begin(), acked.end(),
            [](const AckedRequest& a, const AckedRequest& b) { return a.acked_at < b.acked_at; });
  const oef::service::ServiceStats stats = served->service->stats();
  const std::string checkpoint_path = served->dir + "/oefd.ckpt";
  {
    auto span = tracer.span("service", "shutdown");
    served.reset();
  }

  const std::size_t acked_ops = update_ms.size();
  const std::size_t attempted = writer_ops + query_ms.size() + queries_failed;
  report.count_ops(attempted, writer_failed + queries_failed);
  report.set("setup_s", median(setup_seconds));
  report.set("ops_per_s", static_cast<double>(acked_ops) / loop_seconds);
  report.set("op_p50_ms", median(update_ms));
  report.set("op_tail_ms", pct(update_ms, 90.0));
  const double mean_efficiency =
      efficiency_sum / static_cast<double>(std::max<std::size_t>(1, query_ms.size()));
  report.set("delivered_throughput", mean_efficiency);
  report.set("ok_share", 1.0 - static_cast<double>(writer_failed + queries_failed) /
                                   static_cast<double>(std::max<std::size_t>(1, attempted)));

  const double per = 1.0 / static_cast<double>(std::max<std::size_t>(1, acked_ops));
  report.set("solver.pivots", static_cast<double>(stats.lp_iterations) * per);
  report.set("solver.cold_pivots", static_cast<double>(stats.cold_lp_iterations) * per);
  report.set("solver.warm_pivots", static_cast<double>(stats.warm_lp_iterations) * per);
  report.set("core.envy_rows_added", static_cast<double>(stats.envy_rows_added) * per);
  report.set("service.resolves", static_cast<double>(stats.resolves) * per);
  report.set("service.batches", static_cast<double>(stats.batches) * per);
  report.set("service.checkpoints", static_cast<double>(stats.checkpoints_written) * per);
  report.set("service.shed", static_cast<double>(stats.requests_shed) * per);
  report.set("service.deadline_expirations",
             static_cast<double>(stats.deadline_expirations) * per);
  report.set("service.duplicates", static_cast<double>(stats.duplicates_served) * per);
  report.set("service.client_retries", static_cast<double>(retries) * per);
  report.set("service.max_batch", static_cast<double>(stats.max_batch_size));
  report.set("service.max_queue_depth", static_cast<double>(stats.max_queue_depth_seen));

  if (tracer.enabled()) {
    // The acked op stream again (a bounded prefix, in ack order) through
    // handle() with no socket; the replayed service must end with the tenant
    // set that prefix implies.
    std::vector<double> handle_ms;
    {
      auto span = tracer.span("service", "handle_replay");
      const std::string dir = options.scratch_dir + "/replay";
      fs::create_directories(dir);
      oef::service::AllocatorService replay(service_options(dir + "/oefd.ckpt"));
      std::set<std::string> implied;
      bool ok = true;
      for (const Request& request : registration) {
        ok = ok && replay.handle(request).status == StatusCode::kOk;
        implied.insert(request.tenant);
      }
      const std::size_t replayed_ops = std::min<std::size_t>(acked.size(), 1000);
      for (std::size_t i = 0; i < replayed_ops; ++i) {
        const Request& request = acked[i].request;
        const double start = now_seconds();
        ok = ok && replay.handle(request).status == StatusCode::kOk;
        handle_ms.push_back((now_seconds() - start) * 1e3);
        if (request.type == MessageType::kRemoveTenant) implied.erase(request.tenant);
        if (request.type == MessageType::kAddTenant) implied.insert(request.tenant);
      }
      const auto replayed = replay.snapshot();
      const std::set<std::string> names(replayed->tenants.begin(), replayed->tenants.end());
      report.check(ok && names == implied,
                   "daemon_mixed: replaying the acked ops through handle() diverged");
    }
    std::vector<double> checkpoint_ms;
    std::size_t checkpoint_bytes = 0;
    {
      auto span = tracer.span("service", "checkpoint_write");
      const auto payload = oef::service::load_checkpoint(checkpoint_path);
      report.check(payload.has_value(), "daemon_mixed: the daemon left no checkpoint");
      if (payload.has_value()) {
        checkpoint_bytes = payload->size();
        for (int i = 0; i < 20; ++i) {
          const double start = now_seconds();
          oef::service::write_checkpoint(options.scratch_dir + "/rewrite.ckpt", *payload);
          checkpoint_ms.push_back((now_seconds() - start) * 1e3);
        }
      }
    }
    std::vector<double> encode_us, decode_us;
    std::size_t response_bytes = 0;
    {
      auto span = tracer.span("service", "codec");
      const std::size_t sample = std::min<std::size_t>(acked.size(), 256);
      for (std::size_t i = 0; i < sample; ++i) {
        double start = now_seconds();
        const std::string frame =
            oef::service::encode_frame(oef::service::encode_request(acked[i].request));
        encode_us.push_back((now_seconds() - start) * 1e6);
        oef::service::FrameReader reader;
        reader.feed(frame);
        std::string payload;
        start = now_seconds();
        const bool framed = reader.next(payload) == oef::service::FrameStatus::kOk;
        const Request decoded = oef::service::decode_request(payload);
        decode_us.push_back((now_seconds() - start) * 1e6);
        report.check(framed && decoded.tenant == acked[i].request.tenant &&
                         decoded.demand == acked[i].request.demand,
                     "daemon_mixed: request codec round trip changed the request");
      }
      for (int i = 0; i < 64; ++i) {
        double start = now_seconds();
        const std::string frame =
            oef::service::encode_frame(oef::service::encode_response(final_state));
        encode_us.push_back((now_seconds() - start) * 1e6);
        response_bytes = frame.size();
        oef::service::FrameReader reader;
        reader.feed(frame);
        std::string payload;
        start = now_seconds();
        const bool framed = reader.next(payload) == oef::service::FrameStatus::kOk;
        const Response decoded = oef::service::decode_response(payload);
        decode_us.push_back((now_seconds() - start) * 1e6);
        report.check(framed && decoded.snapshot.tenants == final_state.snapshot.tenants,
                     "daemon_mixed: response codec round trip changed the snapshot");
      }
    }
    report.set("service.handle_ms", median(handle_ms));
    report.set("service.checkpoint_write_ms", median(checkpoint_ms));
    report.set("service.checkpoint_bytes", static_cast<double>(checkpoint_bytes));
    report.set("service.encode_us", median(encode_us));
    report.set("service.decode_us", median(decode_us));
    report.set("service.response_bytes", static_cast<double>(response_bytes));
    report.line("handle_p50_ms", median(handle_ms), "ms", handle_ms.size());
    report.line("checkpoint_write_ms", median(checkpoint_ms), "ms", checkpoint_ms.size());
  }

  report.line("setup_s", median(setup_seconds), "s", setup_seconds.size());
  report.line("acked_updates_per_s", report.get("ops_per_s"), "1/s", acked_ops);
  report.line("update_p50_ms", median(update_ms), "ms", update_ms.size());
  report.line("update_p90_ms", pct(update_ms, 90.0), "ms", update_ms.size());
  report.line("update_p99_ms", pct(update_ms, 99.0), "ms", update_ms.size());
  report.line("remove_add_p50_ms", median(churn_ms), "ms", churn_ms.size());
  report.line("remove_add_p90_ms", pct(churn_ms, 90.0), "ms", churn_ms.size());
  report.line("query_p50_ms", median(query_ms), "ms", query_ms.size());
  report.line("query_p99_ms", pct(query_ms, 99.0), "ms", query_ms.size());
  report.line("final_tenants", static_cast<double>(served_names.size()), "count", 1);
  report.line("total_efficiency", mean_efficiency, "gpu_eq", query_ms.size());
}

}  // namespace perfbench
