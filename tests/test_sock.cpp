// Unit tests for the socket stack (the IPoIB baseline): framing-free byte
// streams, backpressure, per-node kernel-path throughput ceiling, and the
// latency gap versus RDMA that motivates the whole paper.
#include <gtest/gtest.h>

#include "sim/join.hpp"
#include "sock/socket.hpp"
#include "test_util.hpp"

namespace cord::sock {
namespace {

using cord::testing::TwoHostFixture;
using cord::testing::run_task;

struct SockFixture : TwoHostFixture {
  SocketStack stack0{*host0, network};
  SocketStack stack1{*host1, network};
};

TEST(Socket, BytesArriveInOrderAndIntact) {
  SockFixture f;
  auto [a, b] = SocketStack::connect(f.stack0, f.stack1);
  std::vector<std::byte> sent(100'000);
  for (std::size_t i = 0; i < sent.size(); ++i) {
    sent[i] = static_cast<std::byte>(i * 31 + 7);
  }
  std::vector<std::byte> got(sent.size());
  run_task(f.engine, [](SockFixture& f, Socket* a, Socket* b,
                        std::vector<std::byte>& sent,
                        std::vector<std::byte>& got) -> sim::Task<> {
    sim::Joinable tx(f.engine, [](os::Core& c, Socket* a,
                                  std::vector<std::byte>& sent) -> sim::Task<> {
      (void)co_await a->send(c, sent);
    }(f.host0->core(0), a, sent));
    co_await b->recv_exact(f.host1->core(0), got);
    co_await tx.join();
  }(f, a, b, sent, got));
  EXPECT_EQ(sent, got);
}

TEST(Socket, OddSizedReadsCrossSegmentBoundaries) {
  // One message of three full MSS segments plus a tail, read back once it
  // has all arrived: 7 B, then 65,479 B (crossing into the second
  // segment), then 65,481 B (into the third), then a read that asks for
  // more than is queued and gets only the rest.
  SockFixture f;
  auto [a, b] = SocketStack::connect(f.stack0, f.stack1);
  const std::size_t mss = f.stack0.config().mss;
  std::vector<std::byte> sent(3 * mss + 1234);
  for (std::size_t i = 0; i < sent.size(); ++i) {
    sent[i] = static_cast<std::byte>(i * 13 + 5);
  }
  std::vector<std::size_t> got_sizes, left;
  std::vector<std::byte> got;
  run_task(f.engine, [](SockFixture& f, Socket* a, Socket* b,
                        std::vector<std::byte>& sent, std::vector<std::byte>& got,
                        std::vector<std::size_t>& got_sizes,
                        std::vector<std::size_t>& left) -> sim::Task<> {
    (void)co_await a->send(f.host0->core(0), sent);
    while (b->available() < sent.size()) co_await f.engine.delay(sim::us(1));
    for (const std::size_t ask : {std::size_t{7}, std::size_t{65'479},
                                  std::size_t{65'481}, sent.size()}) {
      std::vector<std::byte> buf(ask);
      const std::size_t n = co_await b->recv(f.host1->core(0), buf);
      got.insert(got.end(), buf.begin(), buf.begin() + static_cast<long>(n));
      got_sizes.push_back(n);
      left.push_back(b->available());
    }
  }(f, a, b, sent, got, got_sizes, left));
  const std::size_t total = sent.size();
  EXPECT_EQ(got_sizes, (std::vector<std::size_t>{7, 65'479, 65'481,
                                                  total - 130'967}));
  EXPECT_EQ(left, (std::vector<std::size_t>{total - 7, total - 65'486,
                                            total - 130'967, 0}));
  EXPECT_EQ(got, sent);
}

TEST(Socket, SmallMessageLatencyIsKernelStackBound) {
  SockFixture f;
  auto [a, b] = SocketStack::connect(f.stack0, f.stack1);
  sim::Time arrival = 0;
  run_task(f.engine, [](SockFixture& f, Socket* a, Socket* b,
                        sim::Time& arrival) -> sim::Task<> {
    std::vector<std::byte> msg(64, std::byte{1});
    sim::Joinable tx(f.engine, [](os::Core& c, Socket* a,
                                  std::vector<std::byte>& m) -> sim::Task<> {
      (void)co_await a->send(c, m);
    }(f.host0->core(0), a, msg));
    std::vector<std::byte> out(64);
    co_await b->recv_exact(f.host1->core(0), out);
    arrival = f.engine.now();
    co_await tx.join();
  }(f, a, b, arrival));
  // Socket path: syscalls + stack + interrupt + wakeup — several us,
  // roughly an order of magnitude above the ~1.2 us RDMA send.
  EXPECT_GT(sim::to_us(arrival), 4.0);
  EXPECT_LT(sim::to_us(arrival), 40.0);
}

TEST(Socket, SingleStreamThroughputIsIpoibClass) {
  SockFixture f;
  auto [a, b] = SocketStack::connect(f.stack0, f.stack1);
  constexpr std::size_t kTotal = 64u << 20;  // 64 MiB
  sim::Time elapsed = 0;
  run_task(f.engine, [](SockFixture& f, Socket* a, Socket* b,
                        sim::Time& elapsed) -> sim::Task<> {
    std::vector<std::byte> chunk(1 << 20, std::byte{7});
    sim::Joinable tx(f.engine, [](os::Core& c, Socket* a,
                                  std::vector<std::byte>& chunk) -> sim::Task<> {
      for (int i = 0; i < 64; ++i) (void)co_await a->send(c, chunk);
    }(f.host0->core(0), a, chunk));
    std::vector<std::byte> sink(1 << 20);
    std::size_t got = 0;
    const sim::Time t0 = f.engine.now();
    while (got < kTotal) got += co_await b->recv(f.host1->core(0), sink);
    elapsed = f.engine.now() - t0;
    co_await tx.join();
  }(f, a, b, elapsed));
  const double gbps = 8.0 * kTotal / sim::to_sec(elapsed) / 1e9;
  // IPoIB-CM-class: clearly below the 100 Gbit/s wire, far above 10G
  // Ethernet (the per-core copy/stack costs bind, not the link).
  EXPECT_GT(gbps, 12.0);
  EXPECT_LT(gbps, 65.0);
}

TEST(Socket, PerNodeKernelPathIsSharedAcrossConnections) {
  // A single stream is bound by its own cores' copies; many concurrent
  // streams must saturate the node's shared kernel path instead of
  // scaling linearly.
  // A 400 Gbit/s wire so the node's kernel path (not the link) binds.
  struct FastWireFixture : TwoHostFixture {
    FastWireFixture() : TwoHostFixture({}, {}, {}, 400.0) {}
    SocketStack stack0{*host0, network};
    SocketStack stack1{*host1, network};
  };
  auto n_stream_gbps = [](int n) {
    FastWireFixture f;
    std::vector<Socket*> as(n), bs(n);
    for (int i = 0; i < n; ++i) {
      std::tie(as[i], bs[i]) = SocketStack::connect(f.stack0, f.stack1);
    }
    sim::Time elapsed = 0;
    run_task(f.engine, [](TwoHostFixture& f, std::vector<Socket*>& as,
                          std::vector<Socket*>& bs, int n,
                          sim::Time& elapsed) -> sim::Task<> {
      std::vector<std::byte> chunk(1 << 20);
      auto sender = [](os::Core& c, Socket* s,
                       std::vector<std::byte>& chunk) -> sim::Task<> {
        for (int i = 0; i < 16; ++i) (void)co_await s->send(c, chunk);
      };
      auto receiver = [](os::Core& c, Socket* s) -> sim::Task<> {
        std::vector<std::byte> sink(1 << 20);
        std::size_t got = 0;
        while (got < (16u << 20)) got += co_await s->recv(c, sink);
      };
      std::vector<std::unique_ptr<sim::Joinable>> tasks;
      const sim::Time t0 = f.engine.now();
      for (int i = 0; i < n; ++i) {
        tasks.push_back(std::make_unique<sim::Joinable>(
            f.engine, sender(f.host0->core(i), as[i], chunk)));
        tasks.push_back(std::make_unique<sim::Joinable>(
            f.engine, receiver(f.host1->core(i), bs[i])));
      }
      for (auto& t : tasks) co_await t->join();
      elapsed = f.engine.now() - t0;
    }(f, as, bs, n, elapsed));
    return 8.0 * 16 * static_cast<double>(n) * (1u << 20) /
           sim::to_sec(elapsed) / 1e9;
  };
  const double one = n_stream_gbps(1);
  const double six = n_stream_gbps(6);
  // Effective node ceiling = mss / (stack_tx + touch(mss)) ~ 120 Gbit/s;
  // one stream is per-core-copy bound (~55 Gbit/s).
  EXPECT_LT(six, one * 4.0)
      << "the shared kernel path must prevent linear scaling to 6 streams";
  EXPECT_GT(six, one * 1.5) << "but a few streams do scale (multiqueue)";
}

TEST(Socket, BackpressureBlocksFastSender) {
  SockFixture f;
  auto [a, b] = SocketStack::connect(f.stack0, f.stack1);
  bool send_done = false;
  run_task(f.engine, [](SockFixture& f, Socket* a, Socket* b,
                        bool& send_done) -> sim::Task<> {
    // 8 MiB into a 1 MiB socket buffer with a receiver that waits 5 ms:
    // the sender must stall on the window.
    std::vector<std::byte> data(8u << 20);
    sim::Joinable tx(f.engine, [](os::Core& c, Socket* a,
                                  std::vector<std::byte>& d,
                                  bool& done) -> sim::Task<> {
      (void)co_await a->send(c, d);
      done = true;
    }(f.host0->core(0), a, data, send_done));
    co_await f.engine.delay(sim::ms(5));
    // Sender cannot have finished: only ~1 MiB fits in flight.
    if (send_done) throw std::runtime_error("sender ignored backpressure");
    std::vector<std::byte> sink(8u << 20);
    co_await b->recv_exact(f.host1->core(0), sink);
    co_await tx.join();
  }(f, a, b, send_done));
  EXPECT_TRUE(send_done);
}

}  // namespace
}  // namespace cord::sock
