// Verifies the five sites encode the paper's Table II faithfully.
#include <gtest/gtest.h>

#include "toolchain/testbed.hpp"

namespace feam::toolchain {
namespace {

using site::CompilerFamily;
using site::MpiImpl;
using support::Version;

TEST(Testbed, FiveSitesInTableOrder) {
  EXPECT_EQ(testbed_site_names(),
            (std::vector<std::string>{"ranger", "forge", "blacklight", "india",
                                      "fir"}));
  EXPECT_EQ(make_testbed().size(), 5u);
}

TEST(Testbed, UnknownSiteThrows) {
  EXPECT_THROW((void)make_site("stampede"), std::invalid_argument);
}

struct SiteExpectation {
  const char* name;
  const char* distro;
  const char* clib;
  const char* system_type;
  int cpu_count;
  std::size_t stack_count;
};

// gtest's default printer dumps the struct's raw bytes, string pointers
// included, so the registered test names would change with every load
// address. Print the site name instead to keep them stable.
void PrintTo(const SiteExpectation& e, std::ostream* os) { *os << e.name; }

class TestbedTableTest : public ::testing::TestWithParam<SiteExpectation> {};

TEST_P(TestbedTableTest, MatchesTableTwo) {
  const auto& expected = GetParam();
  const auto s = make_site(expected.name);
  EXPECT_NE(s->os_distro.find(expected.distro), std::string::npos);
  EXPECT_EQ(s->clib_version, Version::of(expected.clib));
  EXPECT_EQ(s->system_type, expected.system_type);
  EXPECT_EQ(s->cpu_count, expected.cpu_count);
  EXPECT_EQ(s->stacks.size(), expected.stack_count);
  EXPECT_EQ(s->isa, elf::Isa::kX86_64);
}

INSTANTIATE_TEST_SUITE_P(
    TableTwo, TestbedTableTest,
    ::testing::Values(
        SiteExpectation{"ranger", "CentOS", "2.3.4", "MPP", 62976, 6},
        SiteExpectation{"forge", "Red Hat", "2.12", "Hybrid", 576, 3},
        SiteExpectation{"blacklight", "SUSE", "2.11.1", "SMP", 4096, 2},
        SiteExpectation{"india", "Red Hat", "2.5", "Cluster", 920, 6},
        SiteExpectation{"fir", "CentOS", "2.5", "Cluster", 1496, 9}),
    [](const auto& param_info) { return std::string(param_info.param.name); });

TEST(Testbed, MpiAvailabilityPerPaper) {
  // "Open MPI is available at five sites, MVAPICH2 is available at four
  // sites, and MPICH2 is available at two sites."
  int openmpi = 0, mvapich2 = 0, mpich2 = 0;
  for (const auto& s : make_testbed()) {
    const auto has = [&](MpiImpl impl) {
      return std::any_of(s->stacks.begin(), s->stacks.end(),
                         [&](const auto& st) { return st.impl == impl; });
    };
    openmpi += has(MpiImpl::kOpenMpi);
    mvapich2 += has(MpiImpl::kMvapich2);
    mpich2 += has(MpiImpl::kMpich2);
  }
  EXPECT_EQ(openmpi, 5);
  EXPECT_EQ(mvapich2, 4);
  EXPECT_EQ(mpich2, 2);
}

TEST(Testbed, RangerStacksAndCompilers) {
  const auto s = make_site("ranger");
  EXPECT_NE(s->find_stack(MpiImpl::kOpenMpi, CompilerFamily::kPgi), nullptr);
  EXPECT_NE(s->find_stack(MpiImpl::kMvapich2, CompilerFamily::kGnu), nullptr);
  EXPECT_EQ(s->find_stack(MpiImpl::kMpich2, CompilerFamily::kGnu), nullptr);
  const auto* openmpi = s->find_stack(MpiImpl::kOpenMpi, CompilerFamily::kIntel);
  ASSERT_NE(openmpi, nullptr);
  EXPECT_EQ(openmpi->version, Version::of("1.3"));
  EXPECT_EQ(openmpi->compiler_version, Version::of("10.1"));
}

TEST(Testbed, ForgeUsesSoftEnv) {
  const auto s = make_site("forge");
  EXPECT_EQ(s->user_env_tool, site::UserEnvTool::kSoftEnv);
  EXPECT_TRUE(s->vfs.exists("/usr/bin/soft"));
  EXPECT_FALSE(s->vfs.exists("/usr/bin/modulecmd"));
  // MVAPICH2 only with Intel at Forge.
  EXPECT_NE(s->find_stack(MpiImpl::kMvapich2, CompilerFamily::kIntel), nullptr);
  EXPECT_EQ(s->find_stack(MpiImpl::kMvapich2, CompilerFamily::kGnu), nullptr);
}

TEST(Testbed, IndiaHasMisconfiguredStack) {
  const auto s = make_site("india");
  const auto* broken = s->find_stack(MpiImpl::kMvapich2, CompilerFamily::kGnu);
  ASSERT_NE(broken, nullptr);
  EXPECT_TRUE(broken->advertised);
  EXPECT_FALSE(broken->functional);
  const auto* working = s->find_stack(MpiImpl::kMvapich2, CompilerFamily::kIntel);
  ASSERT_NE(working, nullptr);
  EXPECT_TRUE(working->functional);
}

TEST(Testbed, ModuleFilesRegisteredForAdvertisedStacks) {
  const auto s = make_site("fir");
  EXPECT_EQ(s->module_files.size(), s->stacks.size());
  const auto modules = s->available_modules();
  EXPECT_NE(std::find(modules.begin(), modules.end(), "mvapich2/1.7a-pgi"),
            modules.end());
}

TEST(Testbed, FaultSeedZeroDisablesSystemErrors) {
  const auto quiet = make_site("india", 0);
  EXPECT_EQ(quiet->system_error_rate, 0.0);
  const auto noisy = make_site("india", 42);
  EXPECT_GT(noisy->system_error_rate, 0.0);
}

TEST(Testbed, SitesAreIndependentInstances) {
  auto a = make_site("india");
  auto b = make_site("india");
  a->vfs.write_file("/home/user/scratch", "x");
  EXPECT_FALSE(b->vfs.exists("/home/user/scratch"));
}

}  // namespace
}  // namespace feam::toolchain
