// support::Blob: shared immutable content with a lazily cached sampled
// hash, and the Vfs's use of it — copies share one buffer, a rewrite or
// removal never invalidates a Blob already handed out, and a short read
// is a new, different content rather than a view of the node's.
#include "support/blob.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "site/fault.hpp"
#include "site/vfs.hpp"

namespace feam::support {
namespace {

Bytes payload(std::size_t n, std::uint8_t salt = 0) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(i * 7 + 3 + salt);
  }
  return out;
}

TEST(Blob, DefaultIsEmptyContent) {
  const Blob blob;
  EXPECT_TRUE(blob.empty());
  EXPECT_EQ(blob.size(), 0u);
  EXPECT_TRUE(blob.bytes().empty());
  EXPECT_EQ(blob, Blob(Bytes{}));
  EXPECT_EQ(blob.hash(), Blob(Bytes{}).hash());
}

TEST(Blob, CopiesShareOneBuffer) {
  const Blob original(payload(100));
  const Blob copy = original;
  EXPECT_TRUE(copy.same(original));
  EXPECT_EQ(copy.bytes().data(), original.bytes().data());
  EXPECT_EQ(copy, original);
}

TEST(Blob, EqualContentInDistinctBuffersIsEqualButNotSame) {
  const Blob a(payload(100));
  const Blob b(payload(100));
  EXPECT_FALSE(a.same(b));
  EXPECT_NE(a.bytes().data(), b.bytes().data());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_FALSE(a == Blob(payload(100, 1)));
  EXPECT_FALSE(a == Blob(payload(99)));
}

TEST(Blob, HashDependsOnContentAndIsStable) {
  const Blob a(payload(4096));
  const std::uint64_t first = a.hash();
  EXPECT_NE(first, 0u);
  EXPECT_EQ(a.hash(), first);
  EXPECT_NE(Blob(payload(4096, 1)).hash(), first);
  EXPECT_NE(Blob(payload(4095)).hash(), first);
}

TEST(Blob, SampledHashCollisionIsCaughtByTheCompare) {
  // Past 8 KiB the hash samples windows; byte 2000 of a 64 KiB content
  // lies between the head and the first interior window. Changing it
  // leaves the hash alone — and equality still tells the contents apart.
  Bytes bytes = payload(64 * 1024);
  const Blob a(bytes);
  bytes[2000] ^= 0xff;
  const Blob b(bytes);
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_FALSE(a == b);
}

TEST(Blob, ConcurrentFirstHashesAgree) {
  const Blob blob(payload(256 * 1024));
  const Blob reference(payload(256 * 1024));
  const std::uint64_t expected = reference.hash();
  std::vector<std::uint64_t> seen(8, 0);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < seen.size(); ++i) {
    threads.emplace_back([&, i] {
      const Blob mine = blob;  // each thread also copies the handle
      seen[i] = mine.hash();
    });
  }
  for (auto& t : threads) t.join();
  for (const std::uint64_t h : seen) EXPECT_EQ(h, expected);
}

TEST(Blob, VfsWritesShareTheBufferAcrossPathsAndTrees) {
  site::Vfs home;
  site::Vfs target;
  const Blob content(payload(1000));
  ASSERT_TRUE(home.write_file("/opt/lib/libx.so", content));
  ASSERT_TRUE(target.write_file("/home/user/libx.so", content));
  const auto at_home = home.read_blob("/opt/lib/libx.so");
  const auto at_target = target.read_blob("/home/user/libx.so");
  ASSERT_TRUE(at_home && at_target);
  EXPECT_TRUE(at_home->same(content));
  EXPECT_TRUE(at_target->same(content));
  // read() sees the same buffer.
  EXPECT_EQ(home.read("/opt/lib/libx.so")->data(), content.bytes().data());
  // A Bytes write wraps a buffer of its own.
  ASSERT_TRUE(target.write_file("/tmp/copy", content.bytes()));
  EXPECT_FALSE(target.read_blob("/tmp/copy")->same(content));
  EXPECT_EQ(*target.read_blob("/tmp/copy"), content);
  EXPECT_FALSE(home.read_blob("/opt/lib/missing").has_value());
}

TEST(Blob, HeldBlobOutlivesRewriteAndRemoval) {
  site::Vfs vfs;
  ASSERT_TRUE(vfs.write_file("/data/f", payload(500)));
  const Blob held = *vfs.read_blob("/data/f");
  ASSERT_TRUE(vfs.write_file("/data/f", payload(300, 9)));
  EXPECT_EQ(held.bytes(), payload(500));
  EXPECT_FALSE(vfs.read_blob("/data/f")->same(held));
  ASSERT_TRUE(vfs.remove("/data/f"));
  EXPECT_EQ(held.bytes(), payload(500));
}

TEST(Blob, ShortReadIsANewShorterContent) {
  site::Vfs vfs;
  const Blob full(payload(256));
  ASSERT_TRUE(vfs.write_file("/data/file", full));
  site::FaultInjector::Options options;
  options.seed = 42;
  options.rate = 1.0;
  options.enoent = false;
  options.eio = false;
  options.torn_write = false;
  auto injector = std::make_shared<site::FaultInjector>(options);
  vfs.set_fault_injector(injector);
  injector->set_enabled(true);

  const auto torn = vfs.read_blob("/data/file");
  ASSERT_TRUE(torn.has_value());
  EXPECT_EQ(injector->fault_count(), 1u);  // one read, one decision
  EXPECT_FALSE(torn->same(full));
  ASSERT_LT(torn->size(), full.size());
  EXPECT_TRUE(std::equal(torn->bytes().begin(), torn->bytes().end(),
                         full.bytes().begin()));
  EXPECT_FALSE(*torn == full);

  injector->set_enabled(false);
  EXPECT_TRUE(vfs.read_blob("/data/file")->same(full));
}

}  // namespace
}  // namespace feam::support
