// NPB kernel tests: verify mode (real arithmetic / integrity stamps) for
// every kernel at class S, across network modes, plus the qualitative
// communication-profile properties Fig. 6 depends on.
#include <gtest/gtest.h>

#include "npb/npb.hpp"

namespace cord::npb {
namespace {

using mpi::NetMode;

Result run_kernel(Kernel k, int ranks, NetMode net, bool verify = true,
                  Class cls = Class::kS, int iters = 0) {
  core::System sys(core::system_l(), 2);
  mpi::World world(sys, ranks, {.net = net});
  return run(world, RunConfig{k, cls, verify, iters});
}

// --- verification at class S, every kernel, RDMA ---------------------------

struct KernelCase {
  Kernel kernel;
  int ranks;
};

class NpbVerify : public ::testing::TestWithParam<KernelCase> {};

TEST_P(NpbVerify, ClassSVerifiesOverRdma) {
  const auto [kernel, ranks] = GetParam();
  Result res = run_kernel(kernel, ranks, NetMode::kBypass);
  EXPECT_GT(res.elapsed, 0);
  if (kernel != Kernel::kEP) {
    EXPECT_GT(res.messages, 0u) << "every non-EP kernel communicates";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, NpbVerify,
    ::testing::Values(KernelCase{Kernel::kEP, 8}, KernelCase{Kernel::kIS, 8},
                      KernelCase{Kernel::kCG, 8}, KernelCase{Kernel::kMG, 8},
                      KernelCase{Kernel::kFT, 8}, KernelCase{Kernel::kLU, 8},
                      KernelCase{Kernel::kSP, 9}, KernelCase{Kernel::kBT, 9}),
    [](const auto& info) {
      return std::string(to_string(info.param.kernel));
    });

class NpbModes : public ::testing::TestWithParam<NetMode> {};

TEST_P(NpbModes, IsAndCgVerifyInEveryMode) {
  EXPECT_NO_THROW(run_kernel(Kernel::kIS, 4, GetParam()));
  EXPECT_NO_THROW(run_kernel(Kernel::kCG, 4, GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Modes, NpbModes,
                         ::testing::Values(NetMode::kBypass, NetMode::kCord,
                                           NetMode::kIpoib),
                         [](const auto& info) {
                           switch (info.param) {
                             case NetMode::kBypass: return "rdma";
                             case NetMode::kCord: return "cord";
                             case NetMode::kIpoib: return "ipoib";
                           }
                           return "?";
                         });

// --- communication-profile properties ---------------------------------------

TEST(Profiles, EpBarelyCommunicates) {
  Result ep = run_kernel(Kernel::kEP, 8, NetMode::kBypass);
  Result is = run_kernel(Kernel::kIS, 8, NetMode::kBypass);
  EXPECT_LT(ep.bytes * 20, is.bytes) << "EP must move far less data than IS";
}

TEST(Profiles, LuSendsManySmallMessages) {
  Result lu = run_kernel(Kernel::kLU, 8, NetMode::kBypass, true, Class::kS, 10);
  Result cg = run_kernel(Kernel::kCG, 8, NetMode::kBypass, true, Class::kS, 10);
  const double lu_avg = static_cast<double>(lu.bytes) / lu.messages;
  const double cg_avg = static_cast<double>(cg.bytes) / cg.messages;
  EXPECT_LT(lu_avg, cg_avg) << "LU's average message is smaller than CG's";
}

TEST(Profiles, FtMovesTheMostDataPerMessage) {
  Result ft = run_kernel(Kernel::kFT, 8, NetMode::kBypass, true, Class::kS, 3);
  Result lu = run_kernel(Kernel::kLU, 8, NetMode::kBypass, true, Class::kS, 3);
  const double ft_avg = static_cast<double>(ft.bytes) / ft.messages;
  const double lu_avg = static_cast<double>(lu.bytes) / lu.messages;
  EXPECT_GT(ft_avg, 10 * lu_avg);
}

TEST(Profiles, SpBtRequireSquareRankCounts) {
  EXPECT_THROW(run_kernel(Kernel::kSP, 8, NetMode::kBypass), std::invalid_argument);
  EXPECT_THROW(run_kernel(Kernel::kBT, 8, NetMode::kBypass), std::invalid_argument);
}

TEST(Profiles, CgFtLuRequirePow2) {
  EXPECT_THROW(run_kernel(Kernel::kCG, 6, NetMode::kBypass), std::invalid_argument);
  EXPECT_THROW(run_kernel(Kernel::kFT, 6, NetMode::kBypass), std::invalid_argument);
  EXPECT_THROW(run_kernel(Kernel::kLU, 6, NetMode::kBypass), std::invalid_argument);
}

// --- Fig. 6 shape at small scale -------------------------------------------

TEST(Fig6Small, CordCloseToRdmaIpoibSlowerOnIs) {
  // Class S at 8 ranks is tiny, but the ordering must already hold.
  const double rdma = sim::to_ms(run_kernel(Kernel::kIS, 8, NetMode::kBypass,
                                            false).elapsed);
  const double cord = sim::to_ms(run_kernel(Kernel::kIS, 8, NetMode::kCord,
                                            false).elapsed);
  const double ipoib = sim::to_ms(run_kernel(Kernel::kIS, 8, NetMode::kIpoib,
                                             false).elapsed);
  EXPECT_LT(cord / rdma, 1.5);
  EXPECT_GT(ipoib / rdma, 1.2);
  EXPECT_GT(ipoib, cord);
}

TEST(Fig6Small, EpInsensitiveToNetwork) {
  const double rdma =
      sim::to_ms(run_kernel(Kernel::kEP, 8, NetMode::kBypass, false).elapsed);
  const double ipoib =
      sim::to_ms(run_kernel(Kernel::kEP, 8, NetMode::kIpoib, false).elapsed);
  EXPECT_NEAR(ipoib / rdma, 1.0, 0.05) << "EP barely communicates";
}

TEST(Determinism, NpbRunsReproduce) {
  const Result a = run_kernel(Kernel::kMG, 8, NetMode::kBypass);
  const Result b = run_kernel(Kernel::kMG, 8, NetMode::kBypass);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.bytes, b.bytes);
}

}  // namespace
}  // namespace cord::npb
