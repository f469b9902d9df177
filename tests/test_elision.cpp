// Idle-poll elision at the MPI layer (DESIGN.md §20). One endpoint pair of
// each transport — VerbsEndpoint and SocketEndpoint — on two System A hosts
// (Turbo on, so the DVFS spin load makes every charge order-dependent) runs
// each scenario twice: with progress loops that park, and as a reference
// that never parks, whose top-level waits run a test-local copy of the
// progress loop as it was before parking existed. Both must agree on every
// observation instant, each core's spin, compute and kernel time, the bits
// of its spin load, and (verbs) its verb count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "mpi/socket_endpoint.hpp"
#include "mpi/verbs_endpoint.hpp"
#include "mpi/world.hpp"
#include "npb/npb.hpp"
#include "sim/join.hpp"
#include "test_util.hpp"

namespace cord::mpi {
namespace {

using Bytes = std::vector<std::byte>;

/// The endpoint under test: library waits park wherever they can.
template <typename Transport>
class Parking : public Transport {
 public:
  using Transport::Transport;

  /// An eager message from (src, tag) waits in the unexpected queue.
  bool arrived(int src, int tag) const {
    return std::any_of(this->unexpected_.begin(), this->unexpected_.end(),
                       [&](const Endpoint::UnexpectedMsg& m) {
                         return m.src == src && m.tag == tag;
                       });
  }
  /// The in-memory delivery a self-send performs before charging its copy.
  void deliver_self(int tag, const Bytes& data) {
    this->deliver_eager(this->rank(), tag, data);
  }
  template <typename Pred>
  sim::Task<> wait(Pred done, const char* what) {
    co_await this->progress_until(done, what);
  }
};

/// The reference: never parks, and waits with the pre-parking loop.
template <typename Transport>
class Ref final : public Parking<Transport> {
 public:
  using Parking<Transport>::Parking;

  template <typename Pred>
  sim::Task<> wait(Pred done, const char* what) {
    int idle = 0;
    const sim::Time deadline =
        this->core().engine().now() + Endpoint::kProgressTimeout;
    while (!done()) {
      const bool any = co_await this->progress_once();
      if (any) {
        idle = 0;
        continue;
      }
      if (++idle > 64) {
        const sim::Time backoff =
            std::min<sim::Time>(sim::ns(25) * idle, sim::us(20));
        co_await this->core().work(backoff, os::Work::kSpin);
      }
      if (this->core().engine().now() > deadline) {
        throw std::runtime_error(std::string("MPI progress timed out: ") + what);
      }
    }
  }

 private:
  bool can_park() const override { return false; }
};

using ParkingEndpoint = Parking<VerbsEndpoint>;
using RefEndpoint = Ref<VerbsEndpoint>;
using ParkingSocketEndpoint = Parking<SocketEndpoint>;
using RefSocketEndpoint = Ref<SocketEndpoint>;

template <typename Ep>
constexpr bool kIsSocket = std::is_base_of_v<SocketEndpoint, Ep>;

struct CoreState {
  sim::Time spin = 0;
  sim::Time compute = 0;
  sim::Time kernel = 0;
  std::uint64_t load_bits = 0;
  std::uint64_t ops = 0;
  bool operator==(const CoreState&) const = default;
};

struct Observation {
  std::vector<sim::Time> instants;
  std::string error;
  CoreState cores[2];
  sim::Time end = 0;
  std::uint64_t elided = 0;  // not compared: zero for the reference
  bool operator==(const Observation& o) const {
    return instants == o.instants && error == o.error &&
           cores[0] == o.cores[0] && cores[1] == o.cores[1] && end == o.end;
  }
};

std::ostream& operator<<(std::ostream& os, const Observation& o) {
  os << "{instants:";
  for (sim::Time t : o.instants) os << ' ' << t;
  os << "; error: '" << o.error << "'; end " << o.end << "}";
  return os;
}

/// Two connected endpoints of type Ep, rank r on core 0 of host r. Socket
/// pairs build their own stacks with `scfg`; verbs pairs ignore it.
template <typename Ep>
class Pair {
 public:
  explicit Pair(const sock::SocketConfig& scfg = {}) : sys_(core::system_a(), 2) {
    if constexpr (kIsSocket<Ep>) {
      for (int r = 0; r < 2; ++r) {
        os::Host& host = sys_.host(static_cast<std::size_t>(r));
        stacks_[r] = std::make_unique<sock::SocketStack>(
            host, *sys_.network_ptr(), scfg);
        ep_[r] = std::make_unique<Ep>(r, 2, host.core(0), *stacks_[r]);
      }
      const auto [s0, s1] = sock::SocketStack::connect(*stacks_[0], *stacks_[1]);
      ep_[0]->attach(1, s0);
      ep_[1]->attach(0, s1);
    } else {
      for (int r = 0; r < 2; ++r) {
        ep_[r] = std::make_unique<Ep>(
            r, 2,
            verbs::Context(sys_.host(static_cast<std::size_t>(r)), 0,
                           sys_.options(verbs::DataplaneMode::kBypass)),
            /*srq_slots=*/128);
      }
      testing::run_task(sys_.engine(), [](Ep& a, Ep& b) -> sim::Task<> {
        co_await a.setup();
        co_await b.setup();
        co_await VerbsEndpoint::wire(a, b);
      }(*ep_[0], *ep_[1]));
    }
  }

  core::System& system() { return sys_; }
  Ep& ep(int r) { return *ep_[r]; }

  /// Run the two ranks' tasks to completion and observe.
  Observation run(sim::Task<> rank0, sim::Task<> rank1) {
    sim::Engine& e = sys_.engine();
    e.spawn(std::move(rank0));
    e.spawn(std::move(rank1));
    e.run();
    EXPECT_EQ(e.live_roots(), 0u);
    obs.end = e.now();
    obs.elided = e.polls_elided();
    for (int r = 0; r < 2; ++r) {
      os::Core& c = ep_[r]->core();
      const double load = c.spin_load();
      obs.cores[r].spin = c.time_spin();
      obs.cores[r].compute = c.time_compute();
      obs.cores[r].kernel = c.time_kernel();
      std::memcpy(&obs.cores[r].load_bits, &load, sizeof load);
      if constexpr (!kIsSocket<Ep>) {
        obs.cores[r].ops = ep_[r]->context().dataplane_ops();
      }
    }
    return obs;
  }

  Observation obs;

 private:
  core::System sys_;
  std::unique_ptr<sock::SocketStack> stacks_[2];  // socket pairs only
  std::unique_ptr<Ep> ep_[2];
};

sim::Task<> idle_rank() { co_return; }

sim::Time now_of(Endpoint& ep) { return ep.core().engine().now(); }

// --- Scenario: eager arrivals -------------------------------------------
// Rank 1 sleeps `d` (no CPU charge, so the push instant moves 1:1 with d)
// and sends two eager messages; rank 0 waits for the first with wait() and
// receives the second through the library's posted-receive path.

template <typename Ep>
Observation arrivals(sim::Time d, bool second = true,
                     const sock::SocketConfig& scfg = {}) {
  Pair<Ep> p(scfg);
  auto rank0 = [](Ep& ep, Observation& obs, bool second) -> sim::Task<> {
    co_await ep.wait([&] { return ep.arrived(1, 1); }, "arrival");
    obs.instants.push_back(now_of(ep));
    Bytes buf(64);
    (void)co_await ep.recv(1, 1, buf);
    obs.instants.push_back(now_of(ep));
    if (!second) co_return;
    (void)co_await ep.recv(1, 2, buf);
    obs.instants.push_back(now_of(ep));
  }(p.ep(0), p.obs, second);
  auto rank1 = [](Ep& ep, sim::Time d, bool second) -> sim::Task<> {
    const Bytes msg(64, std::byte{7});
    co_await ep.core().engine().delay(d);
    co_await ep.send(0, 1, msg);
    if (!second) co_return;
    co_await ep.core().engine().delay(d / 3 + sim::ns(700));
    co_await ep.send(0, 2, msg);
  }(p.ep(1), d, second);
  return p.run(std::move(rank0), std::move(rank1));
}

TEST(Elision, ArrivalsAtEveryPollPhaseMatchReference) {
  // Steps not commensurate with the ~23 ns poll charge, so pushes land in
  // both halves of an iteration (before the send-CQ read and between it
  // and the receive-CQ read), early and deep into the backoff ramp.
  for (sim::Time d = 0; d < sim::us(3); d += 13'337) {
    const Observation ref = arrivals<RefEndpoint>(d);
    const Observation got = arrivals<ParkingEndpoint>(d);
    EXPECT_EQ(got, ref) << "d = " << d;
    EXPECT_GT(got.elided, 0u);
  }
  for (const sim::Time d : {sim::us(40), sim::us(250)}) {
    EXPECT_EQ(arrivals<ParkingEndpoint>(d), arrivals<RefEndpoint>(d))
        << "d = " << d;
  }
}

TEST(Elision, PushAtExactlyAPollInstantMatchesReference) {
  // The first arrival's observation instant is a step function of d. At
  // its edge the CQE push lands exactly on a receive-CQ read: the largest d
  // still observed at read R, or the next one, pushes at R itself. Such a
  // push is scheduled by the NIC before the read's event was, so it comes
  // first in (t, seq) order; the next test covers the other order.
  for (const sim::Time d0 : {sim::ns(400), sim::us(30)}) {
    const auto seen = [](sim::Time d) {
      return arrivals<RefEndpoint>(d, false).instants.front();
    };
    const sim::Time r = seen(d0);
    sim::Time lo = d0, hi = d0 + sim::us(25);
    ASSERT_GT(seen(hi), r);
    while (hi - lo > 1) {
      const sim::Time mid = lo + (hi - lo) / 2;
      (seen(mid) == r ? lo : hi) = mid;
    }
    for (const sim::Time d : {lo - 1, lo, hi, hi + 1}) {
      EXPECT_EQ(arrivals<ParkingEndpoint>(d, false), arrivals<RefEndpoint>(d, false))
          << "d = " << d;
    }
  }
}

// --- Scenario: a delivery exactly at a poll instant -----------------------
// An in-memory delivery into rank 0's unexpected queue (the first half of
// a self-send) `at` after setup, scheduled before (`late` false) or after
// the step due at that instant: the waiting loop sees it at that poll or
// at the next one.

template <typename Ep>
Observation delivery_at(sim::Time at, bool late) {
  Pair<Ep> p;
  Ep& ep = p.ep(0);
  sim::Engine& e = p.system().engine();
  const sim::Time t = e.now() + at;
  const auto deliver = [&ep] { ep.deliver_self(6, Bytes(32)); };
  if (late) {
    e.call_at(t - 1, [&e, t, deliver] { e.call_at(t, deliver); });
  } else {
    e.call_at(t, deliver);
  }
  auto rank0 = [](Ep& ep, Observation& obs) -> sim::Task<> {
    co_await ep.wait([&] { return ep.arrived(0, 6); }, "delivery");
    obs.instants.push_back(now_of(ep));
  }(ep, p.obs);
  return p.run(std::move(rank0), idle_rank());
}

TEST(Elision, DeliveryAtExactlyAPollInstantMatchesReferenceInBothOrders) {
  for (const sim::Time at0 : {sim::ns(400), sim::us(30)}) {
    // Delivered first, a delivery at `at` is seen at the first read at or
    // after it, so the largest `at` seen at read R is R itself.
    const auto seen = [](sim::Time at) {
      return delivery_at<RefEndpoint>(at, false).instants.front();
    };
    const sim::Time r = seen(at0);
    sim::Time lo = at0, hi = at0 + sim::us(25);
    ASSERT_GT(seen(hi), r);
    while (hi - lo > 1) {
      const sim::Time mid = lo + (hi - lo) / 2;
      (seen(mid) == r ? lo : hi) = mid;
    }
    const Observation first = delivery_at<RefEndpoint>(lo, false);
    const Observation second = delivery_at<RefEndpoint>(lo, true);
    EXPECT_LT(first.instants.front(), second.instants.front());
    EXPECT_EQ(delivery_at<ParkingEndpoint>(lo, false), first) << "at = " << lo;
    EXPECT_EQ(delivery_at<ParkingEndpoint>(lo, true), second) << "at = " << lo;
  }
}

// --- Scenario: sendrecv ---------------------------------------------------
// Both ranks exchange a rendezvous-sized and an eager message with
// Rank::sendrecv's shape: the send (waiting for its FIN) and the receive
// run as two progress loops on one core.

template <typename Ep>
sim::Task<> sendrecv(Ep& ep, int peer, int tag, const Bytes& out, Bytes& in) {
  sim::Joinable tx(ep.core().engine(), ep.send(peer, tag, out));
  (void)co_await ep.recv(peer, tag, in);
  co_await tx.join();
}

template <typename Ep>
Observation exchanges(sim::Time d) {
  Pair<Ep> p;
  auto rank = [](Ep& ep, Observation& obs, int peer, sim::Time d) -> sim::Task<> {
    co_await ep.core().engine().delay(d);
    Bytes big(64 << 10, std::byte{1}), big_in(64 << 10);
    Bytes small(512, std::byte{2}), small_in(512);
    co_await sendrecv(ep, peer, 3, big, big_in);
    obs.instants.push_back(now_of(ep));
    co_await ep.core().work(sim::us(3), os::Work::kCompute);
    co_await sendrecv(ep, peer, 4, small, small_in);
    obs.instants.push_back(now_of(ep));
  };
  return p.run(rank(p.ep(0), p.obs, 1, 0), rank(p.ep(1), p.obs, 0, d));
}

TEST(Elision, SendrecvLoopsSharingOneCoreMatchReference) {
  // Staggered starts move which loop harvests each completion, including
  // a sibling harvesting a read completion whose deferred FIN the parked
  // loop's next iteration sends.
  std::vector<sim::Time> ds{sim::us(45)};
  for (sim::Time d = 0; d < sim::us(6); d += 97'003) ds.push_back(d);
  for (const sim::Time d : ds) {
    const Observation ref = exchanges<RefEndpoint>(d);
    const Observation got = exchanges<ParkingEndpoint>(d);
    EXPECT_EQ(got, ref) << "d = " << d;
    EXPECT_GT(got.elided, 0u);
  }
}

// --- Scenario: loops in lock-step waking at one instant -------------------
// Both ranks start waiting at the same instant on identical cores, so their
// parked loops step in lock-step; one callback `at` later delivers to both
// endpoints (before or after the steps due then), both loops wake at the
// same instant, and each rank then exchanges a message with the other.

template <typename Ep>
Observation lock_step(sim::Time at, bool late) {
  Pair<Ep> p;
  sim::Engine& e = p.system().engine();
  const sim::Time t = e.now() + at;
  const auto deliver = [&p] {
    p.ep(0).deliver_self(6, Bytes(32));
    p.ep(1).deliver_self(6, Bytes(32));
  };
  if (late) {
    e.call_at(t - 1, [&e, t, deliver] { e.call_at(t, deliver); });
  } else {
    e.call_at(t, deliver);
  }
  auto rank = [](Ep& ep, Observation& obs, int peer) -> sim::Task<> {
    co_await ep.wait([&] { return ep.arrived(ep.rank(), 6); }, "delivery");
    obs.instants.push_back(now_of(ep));
    Bytes buf(64);
    co_await ep.send(peer, 7, Bytes(64, std::byte{5}));
    (void)co_await ep.recv(peer, 7, buf);
    obs.instants.push_back(now_of(ep));
  };
  return p.run(rank(p.ep(0), p.obs, 1), rank(p.ep(1), p.obs, 0));
}

TEST(Elision, LockStepLoopsWakingAtOneInstantMatchReference) {
  for (const sim::Time at0 : {sim::ns(400), sim::us(30)}) {
    // As DeliveryAtExactlyAPollInstantMatchesReferenceInBothOrders: the
    // edge of the first wake's step function puts the delivery exactly on
    // a step instant of both loops.
    const auto seen = [](sim::Time at) {
      return lock_step<RefEndpoint>(at, false).instants.front();
    };
    const sim::Time r = seen(at0);
    sim::Time lo = at0, hi = at0 + sim::us(25);
    ASSERT_GT(seen(hi), r);
    while (hi - lo > 1) {
      const sim::Time mid = lo + (hi - lo) / 2;
      (seen(mid) == r ? lo : hi) = mid;
    }
    for (const sim::Time at : {lo - 1, lo, hi, at0 + sim::ns(777)}) {
      for (const bool late : {false, true}) {
        const Observation ref = lock_step<RefEndpoint>(at, late);
        const Observation got = lock_step<ParkingEndpoint>(at, late);
        EXPECT_EQ(got, ref) << "at = " << at << (late ? " (late)" : "");
        ASSERT_EQ(got.instants.size(), 4u);
        EXPECT_EQ(got.instants[0], got.instants[1]);  // one wake instant
        EXPECT_GT(got.elided, 0u);
      }
    }
  }
}

// --- Scenario: the send side charges while the receive loop is parked ------
// Rank 0 posts a receive in a sibling task, then `d` later sends (the bounce
// copy, WQE build and doorbell charge its core) and computes, all between
// the parked receive loop's steps on that same core.

template <typename Ep>
Observation charge_while_parked(sim::Time d) {
  Pair<Ep> p;
  auto rank0 = [](Ep& ep, Observation& obs, sim::Time d) -> sim::Task<> {
    Bytes in(512);
    sim::Joinable rx(ep.core().engine(), [](Ep& ep, Bytes& in) -> sim::Task<> {
      (void)co_await ep.recv(1, 8, in);
    }(ep, in));
    co_await ep.core().engine().delay(d);
    co_await ep.send(1, 9, Bytes(512, std::byte{6}));
    obs.instants.push_back(now_of(ep));
    co_await ep.core().work(sim::ns(333), os::Work::kCompute);
    obs.instants.push_back(now_of(ep));
    co_await rx.join();
    obs.instants.push_back(now_of(ep));
  };
  auto rank1 = [](Ep& ep) -> sim::Task<> {
    Bytes in(512);
    (void)co_await ep.recv(0, 9, in);
    co_await ep.core().engine().delay(sim::us(2));
    co_await ep.send(0, 8, Bytes(512, std::byte{7}));
  };
  return p.run(rank0(p.ep(0), p.obs, d), rank1(p.ep(1)));
}

TEST(Elision, SendSideChargesBetweenParkedReceiveStepsMatchReference) {
  std::vector<sim::Time> ds{sim::us(40), sim::us(250)};
  for (sim::Time d = 0; d < sim::us(3); d += 13'337) ds.push_back(d);
  for (const sim::Time d : ds) {
    const Observation ref = charge_while_parked<RefEndpoint>(d);
    const Observation got = charge_while_parked<ParkingEndpoint>(d);
    EXPECT_EQ(got, ref) << "d = " << d;
    EXPECT_GT(got.elided, 0u);
  }
}

// --- Scenario: metrics read while loops are parked ---------------------------
// A callback reads rank 0's verb count or its core first (alternately), then
// the other, then System::metrics() by gauge and by its text dump, while
// rank 0's receive loop is parked (the message comes 40 us later). Each
// read catches the parked loop up on its own: the core and verb count equal
// the reference's at that instant, and events plus replayed steps equal the
// reference's events.

struct Reading {
  std::uint64_t work = 0;  // events + sim.polls_elided (the reference's events)
  std::int64_t sys_elided = 0;
  std::int64_t dump_elided = 0;
  CoreState core;
  bool operator==(const Reading& o) const {
    return work == o.work && core == o.core;
  }
};

std::int64_t metric_line(const std::string& text, const std::string& name) {
  const std::size_t at = text.find(name + " ");
  return at == std::string::npos ? -1 : std::stoll(text.substr(at + name.size() + 1));
}

template <typename Ep>
std::vector<Reading> read_while_parked(const std::vector<sim::Time>& reads,
                                       bool late) {
  Pair<Ep> p;
  sim::Engine& e = p.system().engine();
  std::vector<Reading> out;
  const auto read = [&p, &e, &out] {
    Reading r;
    const bool ops_first = out.size() % 2 == 0;
    if (ops_first) r.core.ops = p.ep(0).context().dataplane_ops();
    os::Core& c = p.ep(0).core();
    r.core.spin = c.time_spin();
    r.core.compute = c.time_compute();
    r.core.kernel = c.time_kernel();
    const double load = c.spin_load();
    std::memcpy(&r.core.load_bits, &load, sizeof load);
    if (!ops_first) r.core.ops = p.ep(0).context().dataplane_ops();
    r.sys_elided = p.system().metrics().gauge_value("sim.polls_elided");
    r.work = e.events_processed() + static_cast<std::uint64_t>(r.sys_elided);
    r.dump_elided = metric_line(p.system().metrics().text(), "sim.polls_elided");
    out.push_back(r);
  };
  for (const sim::Time at : reads) {
    const sim::Time t = e.now() + at;
    if (late) {
      e.call_at(t - 1, [&e, t, read] { e.call_at(t, read); });
    } else {
      e.call_at(t, read);
    }
  }
  auto rank0 = [](Ep& ep) -> sim::Task<> {
    Bytes in(64);
    (void)co_await ep.recv(1, 3, in);
  };
  auto rank1 = [](Ep& ep) -> sim::Task<> {
    co_await ep.core().engine().delay(sim::us(40));
    co_await ep.send(0, 3, Bytes(64, std::byte{8}));
  };
  p.run(rank0(p.ep(0)), rank1(p.ep(1)));
  return out;
}

TEST(Elision, MetricsReadWhileParkedMatchReference) {
  const std::vector<sim::Time> reads{sim::ns(333), sim::us(1) + 7,
                                     sim::us(12) + 500, sim::us(25)};
  for (const bool late : {false, true}) {
    const std::vector<Reading> ref = read_while_parked<RefEndpoint>(reads, late);
    const std::vector<Reading> got = read_while_parked<ParkingEndpoint>(reads, late);
    ASSERT_EQ(got.size(), reads.size());
    EXPECT_EQ(got, ref);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(ref[i].sys_elided, 0) << i;
      EXPECT_EQ(ref[i].dump_elided, 0) << i;
      EXPECT_GT(got[i].sys_elided, 0) << i;
      EXPECT_EQ(got[i].dump_elided, got[i].sys_elided) << i;
    }
  }
}

// --- Scenario: self-send --------------------------------------------------
// Rank 0 posts a receive from itself and, `d` later, sends it the message:
// the send's in-memory delivery must wake the parked receive.

template <typename Ep>
Observation self_send(sim::Time d) {
  Pair<Ep> p;
  auto rank0 = [](Ep& ep, Observation& obs, sim::Time d) -> sim::Task<> {
    Bytes in(256);
    sim::Joinable rx(ep.core().engine(), [](Ep& ep, Bytes& in) -> sim::Task<> {
      (void)co_await ep.recv(0, 5, in);
    }(ep, in));
    co_await ep.core().engine().delay(d);
    co_await ep.send(0, 5, Bytes(256, std::byte{3}));
    obs.instants.push_back(now_of(ep));
    co_await rx.join();
    obs.instants.push_back(now_of(ep));
  };
  return p.run(rank0(p.ep(0), p.obs, d), idle_rank());
}

TEST(Elision, SelfSendCompletesParkedReceive) {
  for (const sim::Time d : {sim::ns(90), sim::us(7), sim::us(300)}) {
    const Observation ref = self_send<RefEndpoint>(d);
    const Observation got = self_send<ParkingEndpoint>(d);
    EXPECT_EQ(got, ref) << "d = " << d;
    EXPECT_GT(got.elided, 0u);
  }
}

// --- Scenario: deadlock ---------------------------------------------------
// A receive nothing will match must still throw at the same virtual time,
// through the library's receive and through wait().

template <typename Ep>
Observation never_completes(bool library) {
  Pair<Ep> p;
  auto rank0 = [](Ep& ep, Observation& obs, bool library) -> sim::Task<> {
    try {
      if (library) {
        Bytes in(64);
        (void)co_await ep.recv(1, 99, in);
      } else {
        co_await ep.wait([&] { return ep.arrived(1, 99); }, "recv (posted)");
      }
    } catch (const std::runtime_error& e) {
      obs.error = e.what();
    }
    obs.instants.push_back(now_of(ep));
  };
  return p.run(rank0(p.ep(0), p.obs, library), idle_rank());
}

TEST(Elision, NeverCompletingReceiveTimesOutAtSameInstant) {
  for (const bool library : {true, false}) {
    const Observation ref = never_completes<RefEndpoint>(library);
    const Observation got = never_completes<ParkingEndpoint>(library);
    EXPECT_EQ(got, ref);
    EXPECT_EQ(got.error, "MPI progress timed out: recv (posted)");
    ASSERT_EQ(got.instants.size(), 1u);
    EXPECT_GT(got.instants[0], sim::sec(5));
  }
}

// --- Socket scenarios -----------------------------------------------------
// The same pair over SocketEndpoint. An empty socket poll is one spin (the
// head step) followed by the idle count and backoff (the settle step); the
// 256th empty poll in a row blocks in epoll_wait and runs for real.

TEST(Elision, SocketArrivalsAtEveryStepMatchReference) {
  // A 64 B message is seen ~8 us after its send. Steps not commensurate
  // with the spin (~190 ns at Turbo) sweep the arrival across the spin and
  // the settle/head steps, before the backoff starts (idle 64, ~12.5 us)
  // and early in its ramp; then deep in the ramp.
  for (sim::Time d = 0; d < sim::us(24); d += 47'317) {
    const Observation ref = arrivals<RefSocketEndpoint>(d);
    const Observation got = arrivals<ParkingSocketEndpoint>(d);
    EXPECT_EQ(got, ref) << "d = " << d;
    EXPECT_GT(got.elided, 0u);
  }
  for (const sim::Time d : {sim::us(40), sim::us(250), sim::us(600)}) {
    EXPECT_EQ(arrivals<ParkingSocketEndpoint>(d), arrivals<RefSocketEndpoint>(d))
        << "d = " << d;
  }
}

TEST(Elision, SocketSegmentAtExactlyAStepInstantMatchesReferenceInBothOrders) {
  // As PushAtExactlyAPollInstantMatchesReference: at the edge of the first
  // arrival's step function one segment lands exactly on the instant of
  // the head step that polls it. With the kernel stack's latencies zeroed
  // the segment is scheduled ~620 ns (the wire) before it lands. Before the
  // backoff, steps are one spin (~190 ns) apart, so the segment was
  // scheduled before the step's slot was taken and comes first (edge at
  // `lo`); in the backoff ramp (~1.5 us from settle to head) it was
  // scheduled after, and the step comes first (edge at `hi`).
  sock::SocketConfig fast;
  fast.stack_tx = 0;
  fast.stack_rx = 0;
  fast.nic_overhead = 0;
  for (const sim::Time d0 : {sim::ns(400), sim::us(30)}) {
    const auto seen = [&fast](sim::Time d) {
      return arrivals<RefSocketEndpoint>(d, false, fast).instants.front();
    };
    const sim::Time r = seen(d0);
    sim::Time lo = d0, hi = d0 + sim::us(25);
    ASSERT_GT(seen(hi), r);
    while (hi - lo > 1) {
      const sim::Time mid = lo + (hi - lo) / 2;
      (seen(mid) == r ? lo : hi) = mid;
    }
    for (const sim::Time d : {lo - 1, lo, hi, hi + 1}) {
      EXPECT_EQ(arrivals<ParkingSocketEndpoint>(d, false, fast),
                arrivals<RefSocketEndpoint>(d, false, fast))
          << "d = " << d;
    }
  }
}

TEST(Elision, SocketDeliveryAtExactlyAStepInstantMatchesReferenceInBothOrders) {
  // DeliveryAtExactlyAPollInstantMatchesReferenceInBothOrders on the socket
  // loop's steps: an in-memory delivery at a head step's instant, scheduled
  // before and after it.
  for (const sim::Time at0 : {sim::ns(400), sim::us(30)}) {
    const auto seen = [](sim::Time at) {
      return delivery_at<RefSocketEndpoint>(at, false).instants.front();
    };
    const sim::Time r = seen(at0);
    sim::Time lo = at0, hi = at0 + sim::us(25);
    ASSERT_GT(seen(hi), r);
    while (hi - lo > 1) {
      const sim::Time mid = lo + (hi - lo) / 2;
      (seen(mid) == r ? lo : hi) = mid;
    }
    const Observation first = delivery_at<RefSocketEndpoint>(lo, false);
    const Observation second = delivery_at<RefSocketEndpoint>(lo, true);
    EXPECT_LT(first.instants.front(), second.instants.front());
    EXPECT_EQ(delivery_at<ParkingSocketEndpoint>(lo, false), first) << "at = " << lo;
    EXPECT_EQ(delivery_at<ParkingSocketEndpoint>(lo, true), second) << "at = " << lo;
  }
}

TEST(Elision, SocketSelfSendCompletesParkedReceive) {
  for (const sim::Time d : {sim::ns(700), sim::us(7), sim::us(300)}) {
    const Observation ref = self_send<RefSocketEndpoint>(d);
    const Observation got = self_send<ParkingSocketEndpoint>(d);
    EXPECT_EQ(got, ref) << "d = " << d;
    EXPECT_GT(got.elided, 0u);
  }
}

TEST(Elision, SocketWaitThroughEpollHandOffMatchesReference) {
  // 255 spins and their backoff take ~0.82 ms; the 256th empty poll makes
  // the syscall (a jitter draw on System A) and blocks in epoll_wait until
  // the segment's readiness, then pays the interrupt and the wakeup. The
  // first wait ends before that poll, the others after it.
  const Observation before = arrivals<ParkingSocketEndpoint>(sim::us(700), false);
  for (const sim::Time d : {sim::us(700), sim::ms(1), sim::us(1300)}) {
    const Observation ref = arrivals<RefSocketEndpoint>(d);
    const Observation got = arrivals<ParkingSocketEndpoint>(d);
    EXPECT_EQ(got, ref) << "d = " << d;
    EXPECT_GT(got.elided, 0u);
  }
  const Observation after = arrivals<ParkingSocketEndpoint>(sim::ms(1), false);
  EXPECT_GE(after.cores[0].kernel - before.cores[0].kernel,
            os::kInterruptHandling + os::kWakeupLatency);
}

template <typename Ep>
Observation socket_times_out(bool library) {
  // Rank 0's wait blocks in epoll_wait until an unmatched message arrives
  // ~0.1 ms before its 5 s deadline; it then spins, parked, past the
  // deadline, and must throw at the reference's instant.
  Pair<Ep> p;
  auto rank0 = [](Ep& ep, Observation& obs, bool library) -> sim::Task<> {
    try {
      if (library) {
        Bytes in(64);
        (void)co_await ep.recv(1, 99, in);
      } else {
        co_await ep.wait([&] { return ep.arrived(1, 99); }, "recv (posted)");
      }
    } catch (const std::runtime_error& e) {
      obs.error = e.what();
    }
    obs.instants.push_back(now_of(ep));
  };
  auto rank1 = [](Ep& ep) -> sim::Task<> {
    co_await ep.core().engine().delay(sim::sec(5) - sim::us(100));
    co_await ep.send(0, 98, Bytes(64, std::byte{4}));
  };
  return p.run(rank0(p.ep(0), p.obs, library), rank1(p.ep(1)));
}

TEST(Elision, SocketReceiveTimesOutAtSameInstant) {
  for (const bool library : {true, false}) {
    const Observation ref = socket_times_out<RefSocketEndpoint>(library);
    const Observation got = socket_times_out<ParkingSocketEndpoint>(library);
    EXPECT_EQ(got, ref);
    EXPECT_EQ(got.error, "MPI progress timed out: recv (posted)");
    ASSERT_EQ(got.instants.size(), 1u);
    EXPECT_GT(got.instants[0], sim::sec(5));
    EXPECT_GT(got.elided, 0u);
  }
}

// --- Gauges -----------------------------------------------------------------

TEST(Elision, GaugesCountElidedPollsAndWakes) {
  for (const NetMode net : {NetMode::kBypass, NetMode::kIpoib}) {
    core::System sys(core::system_a(), 2);
    WorldConfig cfg;
    cfg.net = net;
    cfg.srq_slots = 512;
    World world(sys, 16, cfg);
    (void)npb::run(world, npb::RunConfig{npb::Kernel::kCG, npb::Class::kB,
                                         /*verify=*/false, 1});
    const std::int64_t elided = sys.metrics().gauge_value("sim.polls_elided");
    const std::int64_t wakes = sys.metrics().gauge_value("sim.poll_wakes");
    const std::int64_t catchups = sys.metrics().gauge_value("sim.poll_catchups");
    EXPECT_GT(elided, 0);
    EXPECT_GT(wakes, 0);
    // Most steps replay in passes of many, not one heap run each.
    EXPECT_GT(catchups, 0);
    EXPECT_GT(elided, 4 * catchups);
    EXPECT_EQ(elided, static_cast<std::int64_t>(sys.engine().polls_elided()));
    EXPECT_EQ(wakes, static_cast<std::int64_t>(sys.engine().poll_wakes()));
    EXPECT_EQ(catchups, static_cast<std::int64_t>(sys.engine().poll_catchups()));
    const std::string dump = sys.metrics().text();
    EXPECT_NE(dump.find("sim.polls_elided"), std::string::npos);
    EXPECT_NE(dump.find("sim.poll_wakes"), std::string::npos);
    EXPECT_NE(dump.find("sim.poll_catchups"), std::string::npos);
  }
}

TEST(Elision, EventsPlusReplayedStepsArePinned) {
  // Engine events plus replayed poll steps of the perfbench smoke points
  // (16 ranks, one iteration). Elision moves work between the two terms
  // but never changes their sum; a change that moves a sum changes the
  // simulated program and must update it here on purpose.
  struct Pin {
    npb::Kernel kernel;
    NetMode net;
    std::uint64_t steps;
  };
  const Pin pins[] = {
      {npb::Kernel::kCG, NetMode::kBypass, 1'136'256},
      {npb::Kernel::kCG, NetMode::kCord, 1'270'830},
      {npb::Kernel::kCG, NetMode::kIpoib, 281'965},
      {npb::Kernel::kIS, NetMode::kBypass, 311'567},
      {npb::Kernel::kIS, NetMode::kCord, 320'280},
      {npb::Kernel::kIS, NetMode::kIpoib, 81'516},
  };
  for (const Pin& pin : pins) {
    core::System sys(core::system_a(), 2);
    WorldConfig cfg;
    cfg.net = pin.net;
    cfg.srq_slots = 512;
    World world(sys, 16, cfg);
    (void)npb::run(world, npb::RunConfig{pin.kernel, npb::Class::kB,
                                         /*verify=*/false, 1});
    const sim::Engine& e = sys.engine();
    EXPECT_EQ(e.events_processed() + e.polls_elided(), pin.steps)
        << npb::to_string(pin.kernel) << " net " << static_cast<int>(pin.net);
    EXPECT_GT(e.polls_elided(), 0u);
  }
}

TEST(Elision, PerftestPollingIsNeverElided) {
  // perftest's wait loops poll through verbs::Context::wait_one, which
  // never parks.
  core::System sys(core::system_l(), 2);
  verbs::Context c0(sys.host(0), 0, sys.options(verbs::DataplaneMode::kBypass));
  verbs::Context c1(sys.host(1), 0, sys.options(verbs::DataplaneMode::kBypass));
  Bytes src(4096, std::byte{9}), dst(4096);
  testing::run_task(sys.engine(), [](verbs::Context& c0, verbs::Context& c1,
                                     Bytes& src, Bytes& dst) -> sim::Task<> {
    const testing::RcEndpoints e = co_await testing::connect_rc(c0, c1);
    const nic::MemoryRegion* smr = co_await c0.reg_mr(
        e.pd0, src.data(), src.size(), nic::kAccessLocalWrite);
    const nic::MemoryRegion* dmr = co_await c1.reg_mr(
        e.pd1, dst.data(), dst.size(), nic::kAccessLocalWrite);
    for (std::uint64_t i = 0; i < 32; ++i) {
      (void)co_await c1.post_recv(
          *e.qp1, {i, {testing::uptr(dst.data()), 4096, dmr->lkey}});
      nic::SendWr wr;
      wr.wr_id = i;
      wr.opcode = nic::Opcode::kSend;
      wr.sge = {testing::uptr(src.data()), 4096, smr->lkey};
      (void)co_await c0.post_send(*e.qp0, wr);
      (void)co_await c0.wait_one(*e.scq0);
      (void)co_await c1.wait_one(*e.rcq1);
    }
  }(c0, c1, src, dst));
  EXPECT_EQ(sys.metrics().gauge_value("sim.polls_elided"), 0);
  EXPECT_EQ(sys.metrics().gauge_value("sim.poll_wakes"), 0);
  EXPECT_EQ(sys.metrics().gauge_value("sim.poll_catchups"), 0);
  EXPECT_GT(sys.engine().events_processed(), 0u);
}

}  // namespace
}  // namespace cord::mpi
