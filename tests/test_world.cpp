// MPI World mechanics: rank placement, traffic accounting, the eager /
// rendezvous split, CoRD's user-space polls, and error propagation.
#include <gtest/gtest.h>

#include "mpi/world.hpp"
#include "os/policies.hpp"

namespace cord::mpi {
namespace {

TEST(World, BlockDistributionAcrossHosts) {
  core::System sys(core::system_l(), 2);
  World world(sys, 10, {});
  for (int r = 0; r < 5; ++r) EXPECT_EQ(world.host_of(r), 0) << "rank " << r;
  for (int r = 5; r < 10; ++r) EXPECT_EQ(world.host_of(r), 1) << "rank " << r;
}

TEST(World, TrafficCountersGrowWithCommunication) {
  core::System sys(core::system_l(), 2);
  World world(sys, 4, {});
  const World::Traffic before = world.traffic();
  (void)world.run([](Rank& r) -> sim::Task<> {
    std::vector<std::byte> buf(1024);
    const int peer = r.id() ^ 1;
    co_await r.sendrecv<std::byte>(peer, 1, buf, peer, 1, buf);
  });
  const World::Traffic after = world.traffic();
  EXPECT_GT(after.messages, before.messages);
  EXPECT_GE(after.bytes - before.bytes, 4u * 1024u)
      << "four ranks exchanged 1 KiB each";
}

TEST(World, RankExceptionPropagatesOutOfRun) {
  core::System sys(core::system_l(), 2);
  World world(sys, 4, {});
  EXPECT_THROW(
      (void)world.run([](Rank& r) -> sim::Task<> {
        co_await r.barrier();
        if (r.id() == 2) throw std::logic_error("rank 2 exploded");
      }),
      std::logic_error);
}

TEST(World, MessagesAboveTheEagerThresholdTravelByRendezvous) {
  // A message of kEagerThreshold bytes goes in one eager send; one byte
  // more travels by rendezvous: an RTS, the receiver's RDMA read and a
  // FIN, two NIC messages more.
  auto messages_for = [](std::size_t bytes) {
    core::System sys(core::system_l(), 2);
    World world(sys, 2, {});
    (void)world.run([bytes](Rank& r) -> sim::Task<> {
      std::vector<std::byte> buf(bytes);
      if (r.id() == 0) {
        co_await r.send<std::byte>(1, 1, buf);
      } else {
        const std::size_t got = co_await r.recv<std::byte>(0, 1, buf);
        if (got != bytes) throw std::runtime_error("short message");
      }
    });
    return world.traffic().messages;
  };
  constexpr std::size_t kEager = VerbsEndpoint::kEagerThreshold;
  EXPECT_EQ(messages_for(kEager + 1), messages_for(kEager) + 2);
}

TEST(World, CordRanksPollTheirCqsFromUserSpace) {
  // System L routes CoRD polls through the kernel by default; an MPI
  // world overrides that (abl_poll_path prices the kernel-routed polls).
  core::System sys(core::system_l(), 2);
  ASSERT_TRUE(sys.options(verbs::DataplaneMode::kCord).poll_via_kernel);
  World world(sys, 2, {.net = NetMode::kCord});
  (void)world.run([](Rank& r) -> sim::Task<> {
    std::vector<std::byte> buf(256);
    const int peer = r.id() ^ 1;
    for (int i = 0; i < 10; ++i) {
      co_await r.sendrecv<std::byte>(peer, 1, buf, peer, 1, buf);
    }
  });
  for (std::size_t h = 0; h < 2; ++h) {
    const trace::MetricsRegistry& m = sys.host(h).kernel().metrics();
    const auto count = [&m](const char* name) {
      const trace::Counter* c = m.find_counter(name, 0);
      return c == nullptr ? 0 : c->value;
    };
    EXPECT_GT(count("kernel.tenant.post_sends"), 0u)
        << "the posting verbs trap on host " << h;
    EXPECT_EQ(count("kernel.tenant.polls"), 0u)
        << "no poll entered the kernel on host " << h;
  }
}

TEST(World, TenantIdReachesThePolicyLayer) {
  core::System sys(core::system_l(), 2);
  auto& stats = static_cast<os::StatsCollector&>(
      sys.host(0).kernel().policies().install(
          std::make_unique<os::StatsCollector>()));
  World world(sys, 2, {.net = NetMode::kCord, .tenant = 77});
  (void)world.run([](Rank& r) -> sim::Task<> {
    std::vector<std::byte> buf(64);
    if (r.id() == 0) {
      co_await r.send<std::byte>(1, 1, buf);
    } else {
      (void)co_await r.recv<std::byte>(0, 1, buf);
    }
  });
  EXPECT_GT(stats.tenant(77).post_sends, 0u)
      << "the whole MPI stack must run under the configured tenant";
}

TEST(World, SingleHostSystemAlsoWorks) {
  // All ranks on one host: everything rides the NIC loopback.
  core::System sys(core::system_l(), 1);
  World world(sys, 4, {});
  const sim::Time t = world.run([](Rank& r) -> sim::Task<> {
    std::vector<double> in{1.0};
    std::vector<double> out(1);
    co_await r.allreduce<double>(in, out, Op::kSum);
    if (out[0] != 4.0) throw std::runtime_error("loopback allreduce wrong");
  });
  EXPECT_GT(t, 0);
}

}  // namespace
}  // namespace cord::mpi
