#include "site/vfs.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

namespace feam::site {
namespace {

TEST(VfsPaths, BasenameDirname) {
  EXPECT_EQ(Vfs::basename("/usr/lib64/libc.so.6"), "libc.so.6");
  EXPECT_EQ(Vfs::basename("plain"), "plain");
  EXPECT_EQ(Vfs::dirname("/usr/lib64/libc.so.6"), "/usr/lib64");
  EXPECT_EQ(Vfs::dirname("/top"), "/");
  EXPECT_EQ(Vfs::join("/usr/lib", "libm.so"), "/usr/lib/libm.so");
  EXPECT_EQ(Vfs::join("/", "etc"), "/etc");
}

TEST(Vfs, WriteAndRead) {
  Vfs vfs;
  ASSERT_TRUE(vfs.write_file("/a/b/c.txt", "hello"));
  ASSERT_TRUE(vfs.is_file("/a/b/c.txt"));
  ASSERT_TRUE(vfs.is_dir("/a/b"));
  ASSERT_TRUE(vfs.is_dir("/a"));
  const auto* content = vfs.read("/a/b/c.txt");
  ASSERT_NE(content, nullptr);
  EXPECT_EQ(std::string(content->begin(), content->end()), "hello");
  EXPECT_EQ(vfs.read("/a/b/missing"), nullptr);
  EXPECT_EQ(vfs.read("/a/b"), nullptr);  // directory, not a file
}

TEST(Vfs, OverwriteReplacesContent) {
  Vfs vfs;
  vfs.write_file("/f", "one");
  vfs.write_file("/f", "two");
  const auto* content = vfs.read("/f");
  ASSERT_NE(content, nullptr);
  EXPECT_EQ(std::string(content->begin(), content->end()), "two");
}

TEST(Vfs, MkdirsThroughFileFails) {
  Vfs vfs;
  vfs.write_file("/a/file", "x");
  EXPECT_FALSE(vfs.write_file("/a/file/sub", "y"));
  EXPECT_FALSE(vfs.mkdirs("/a/file/sub"));
}

TEST(Vfs, SymlinkChainsResolve) {
  // The libmpi.so -> libmpi.so.0 -> libmpi.so.0.0.2 convention.
  Vfs vfs;
  vfs.write_file("/opt/mpi/lib/libmpi.so.0.0.2", "elf");
  vfs.symlink("/opt/mpi/lib/libmpi.so.0", "libmpi.so.0.0.2");
  vfs.symlink("/opt/mpi/lib/libmpi.so", "libmpi.so.0");

  EXPECT_TRUE(vfs.is_file("/opt/mpi/lib/libmpi.so"));
  EXPECT_TRUE(vfs.is_symlink("/opt/mpi/lib/libmpi.so"));
  EXPECT_FALSE(vfs.is_symlink("/opt/mpi/lib/libmpi.so.0.0.2"));
  EXPECT_EQ(vfs.resolve("/opt/mpi/lib/libmpi.so"),
            "/opt/mpi/lib/libmpi.so.0.0.2");
  ASSERT_NE(vfs.read("/opt/mpi/lib/libmpi.so.0"), nullptr);
}

TEST(Vfs, AbsoluteSymlinkTargets) {
  Vfs vfs;
  vfs.write_file("/real/file", "x");
  vfs.symlink("/alias/link", "/real/file");
  EXPECT_EQ(vfs.resolve("/alias/link"), "/real/file");
  EXPECT_NE(vfs.read("/alias/link"), nullptr);
}

TEST(Vfs, DanglingSymlink) {
  Vfs vfs;
  vfs.symlink("/lib/libgone.so.1", "libgone.so.1.0.0");
  EXPECT_TRUE(vfs.is_symlink("/lib/libgone.so.1"));
  EXPECT_FALSE(vfs.exists("/lib/libgone.so.1"));  // follows to nothing
  EXPECT_EQ(vfs.read("/lib/libgone.so.1"), nullptr);
  EXPECT_FALSE(vfs.resolve("/lib/libgone.so.1").has_value());
}

TEST(Vfs, SymlinkLoopIsDetected) {
  Vfs vfs;
  vfs.symlink("/a/x", "y");
  vfs.symlink("/a/y", "x");
  EXPECT_FALSE(vfs.exists("/a/x"));
  EXPECT_FALSE(vfs.resolve("/a/x").has_value());
}

TEST(Vfs, SymlinkedDirectoryTraversal) {
  Vfs vfs;
  vfs.write_file("/opt/pkg-1.4/lib/libx.so", "x");
  vfs.symlink("/opt/pkg", "pkg-1.4");
  EXPECT_TRUE(vfs.is_file("/opt/pkg/lib/libx.so"));
}

TEST(Vfs, RemoveFileAndTree) {
  Vfs vfs;
  vfs.write_file("/d/one", "1");
  vfs.write_file("/d/sub/two", "2");
  EXPECT_TRUE(vfs.remove("/d/one"));
  EXPECT_FALSE(vfs.exists("/d/one"));
  EXPECT_FALSE(vfs.remove("/d/one"));  // already gone
  EXPECT_TRUE(vfs.remove("/d"));       // recursive
  EXPECT_FALSE(vfs.exists("/d/sub/two"));
}

TEST(Vfs, ListSorted) {
  Vfs vfs;
  vfs.write_file("/dir/zeta", "");
  vfs.write_file("/dir/alpha", "");
  vfs.mkdirs("/dir/middle");
  EXPECT_EQ(vfs.list("/dir"),
            (std::vector<std::string>{"alpha", "middle", "zeta"}));
  EXPECT_TRUE(vfs.list("/nonexistent").empty());
}

TEST(Vfs, FindByPredicate) {
  Vfs vfs;
  vfs.write_file("/usr/lib/libm.so.6", "");
  vfs.write_file("/usr/lib/sub/libmpi.so.0", "");
  vfs.write_file("/usr/share/doc", "");
  // ".so" filter keeps the /usr/lib directory itself out of the hits.
  const auto hits = vfs.find("/usr", [](std::string_view name) {
    return name.substr(0, 3) == "lib" &&
           name.find(".so") != std::string_view::npos;
  });
  EXPECT_EQ(hits, (std::vector<std::string>{"/usr/lib/libm.so.6",
                                            "/usr/lib/sub/libmpi.so.0"}));
}

TEST(Vfs, FindDoesNotDescendSymlinkedDirs) {
  Vfs vfs;
  vfs.write_file("/real/liba.so", "");
  vfs.symlink("/scan/link", "/real");
  const auto hits =
      vfs.find("/scan", [](std::string_view name) { return name == "liba.so"; });
  EXPECT_TRUE(hits.empty());
}

TEST(Vfs, LocateSubstring) {
  Vfs vfs;
  vfs.write_file("/opt/openmpi-1.4/lib/libmpi.so.0", "");
  vfs.write_file("/usr/lib64/libmpich.so.1.2", "");
  const auto hits = vfs.locate("libmpi");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0], "/opt/openmpi-1.4/lib/libmpi.so.0");
  EXPECT_EQ(hits[1], "/usr/lib64/libmpich.so.1.2");
}

TEST(Vfs, Accounting) {
  Vfs vfs;
  vfs.write_file("/a/one", std::string(100, 'x'));
  vfs.write_file("/a/b/two", std::string(50, 'y'));
  vfs.symlink("/a/link", "one");  // links own no bytes
  EXPECT_EQ(vfs.total_file_bytes(), 150u);
  EXPECT_EQ(vfs.file_count(), 2u);
}

// The walks step through a path's components in place; these pin the
// answers for the path shapes that stress that: empty components,
// symlinks mid-path and at the end, the depth limit, and dead ends.
TEST(VfsWalk, RepeatedAndTrailingSlashesCollapse) {
  Vfs vfs;
  ASSERT_TRUE(vfs.write_file("//usr///lib//libc.so.6", "c"));
  EXPECT_TRUE(vfs.is_file("/usr/lib/libc.so.6"));
  EXPECT_TRUE(vfs.is_file("/usr/lib/libc.so.6/"));
  EXPECT_TRUE(vfs.is_file("usr/lib/libc.so.6"));
  EXPECT_TRUE(vfs.is_dir("/usr//lib/"));
  EXPECT_TRUE(vfs.is_dir("/"));
  EXPECT_TRUE(vfs.is_dir("//"));
  EXPECT_TRUE(vfs.is_dir(""));
  EXPECT_EQ(vfs.list("/usr/"), (std::vector<std::string>{"lib"}));
  EXPECT_EQ(vfs.file_version("/usr//lib/libc.so.6"),
            vfs.file_version("/usr/lib/libc.so.6"));
  ASSERT_TRUE(vfs.mkdirs("/opt//pkg///"));
  EXPECT_TRUE(vfs.is_dir("/opt/pkg"));
  EXPECT_TRUE(vfs.remove("/usr//lib/libc.so.6"));
  EXPECT_FALSE(vfs.exists("/usr/lib/libc.so.6"));
  EXPECT_FALSE(vfs.write_file("/", "root is not a file"));
}

TEST(VfsWalk, RelativeSymlinkInAMiddleComponent) {
  Vfs vfs;
  vfs.write_file("/opt/pkg-1.4/lib/libx.so", "x");
  vfs.symlink("/opt/pkg", "pkg-1.4");
  EXPECT_TRUE(vfs.is_file("/opt/pkg/lib/libx.so"));
  EXPECT_TRUE(vfs.is_file("//opt//pkg//lib/libx.so"));
  EXPECT_TRUE(vfs.is_dir("/opt/pkg/lib/"));
  EXPECT_EQ(vfs.list("/opt/pkg/lib"), (std::vector<std::string>{"libx.so"}));
  EXPECT_FALSE(vfs.exists("/opt/pkg/lib/liby.so"));
  // Relative to the link's own directory, not to the root.
  vfs.mkdirs("/pkg-1.4");
  vfs.symlink("/srv/pkg", "pkg-1.4");
  EXPECT_FALSE(vfs.exists("/srv/pkg"));
  vfs.mkdirs("/srv/pkg-1.4");
  EXPECT_TRUE(vfs.is_dir("/srv/pkg"));
  EXPECT_FALSE(vfs.exists("/srv/pkg/lib/libx.so"));
  // Two links in a row, each relative to where it sits.
  vfs.symlink("/opt/current", "pkg");
  EXPECT_TRUE(vfs.is_file("/opt/current/lib/libx.so"));
}

TEST(VfsWalk, AbsoluteSymlinkInAMiddleComponent) {
  Vfs vfs;
  vfs.write_file("/real/lib/liba.so", "a");
  vfs.symlink("/alias/dir", "/real/lib");
  EXPECT_TRUE(vfs.is_file("/alias/dir/liba.so"));
  EXPECT_TRUE(vfs.is_file("/alias//dir///liba.so"));
  EXPECT_EQ(vfs.resolve("/alias/dir/liba.so"), "/alias/dir/liba.so");
  // A link to "/" continues from the root.
  vfs.symlink("/up", "/");
  EXPECT_TRUE(vfs.is_file("/up/real/lib/liba.so"));
  EXPECT_TRUE(vfs.is_file("/up/alias/dir/liba.so"));
}

TEST(VfsWalk, SymlinkInTheLastComponent) {
  Vfs vfs;
  vfs.write_file("/lib/libm.so.6.0", "m");
  vfs.symlink("/lib/libm.so.6", "libm.so.6.0");
  vfs.symlink("/lib/abs", "/lib/libm.so.6");
  vfs.symlink("/lib/dirlink", "/lib");
  for (const char* path : {"/lib/libm.so.6", "/lib/abs", "/lib//abs/"}) {
    EXPECT_TRUE(vfs.is_file(path)) << path;
    EXPECT_TRUE(vfs.is_symlink(path)) << path;
    EXPECT_EQ(vfs.file_version(path), vfs.file_version("/lib/libm.so.6.0"))
        << path;
  }
  EXPECT_EQ(vfs.resolve("/lib/abs"), "/lib/libm.so.6.0");
  EXPECT_TRUE(vfs.is_dir("/lib/dirlink"));
  EXPECT_TRUE(vfs.is_symlink("/lib/dirlink/"));
  EXPECT_TRUE(vfs.is_file("/lib/dirlink/dirlink/abs"));
  // The empty target is the root itself.
  vfs.symlink("/empty", "");
  EXPECT_TRUE(vfs.is_dir("/empty"));
  EXPECT_TRUE(vfs.is_file("/empty/lib/libm.so.6"));
}

TEST(VfsWalk, SymlinkDepthLimit) {
  // /l0 -> /l1 -> ... -> /l<n-1> -> /file: sixteen hops resolve, the
  // seventeenth is past the limit.
  const auto chain = [](int links) {
    auto vfs = std::make_unique<Vfs>();
    vfs->write_file("/file", "f");
    for (int i = 0; i < links; ++i) {
      const std::string next =
          i + 1 == links ? "file" : "l" + std::to_string(i + 1);
      vfs->symlink("/l" + std::to_string(i), next);
    }
    return vfs;
  };
  EXPECT_TRUE(chain(16)->is_file("/l0"));
  EXPECT_FALSE(chain(17)->exists("/l0"));
  EXPECT_TRUE(chain(17)->is_symlink("/l0"));  // not followed
  EXPECT_TRUE(chain(17)->is_file("/l1"));
  // Mid-path hops count the same way.
  auto vfs = chain(16);
  vfs->write_file("/dir/inner", "i");
  vfs->symlink("/l15", "dir");
  EXPECT_TRUE(vfs->is_file("/l0/inner"));
  vfs->symlink("/a", "b");
  vfs->symlink("/b", "a");
  EXPECT_FALSE(vfs->exists("/a/inner"));
}

TEST(VfsWalk, MissingMiddleDirectory) {
  Vfs vfs;
  vfs.write_file("/usr/lib/libc.so.6", "c");
  EXPECT_FALSE(vfs.exists("/usr/lib64/libc.so.6"));
  EXPECT_EQ(vfs.read("/usr/missing/lib/libc.so.6"), nullptr);
  EXPECT_FALSE(vfs.file_version("/usr/missing/libc.so.6").has_value());
  EXPECT_FALSE(vfs.resolve("/nope/libc.so.6").has_value());
  EXPECT_TRUE(vfs.list("/usr/missing").empty());
  EXPECT_FALSE(vfs.remove("/usr/missing/libc.so.6"));
  // Writing creates the missing middle directories.
  ASSERT_TRUE(vfs.write_file("/usr/missing/lib/libc.so.6", "d"));
  EXPECT_TRUE(vfs.is_dir("/usr/missing/lib"));
}

TEST(VfsWalk, FileUsedAsADirectory) {
  Vfs vfs;
  vfs.write_file("/lib/libc.so.6", "c");
  vfs.symlink("/lib/link", "libc.so.6");
  EXPECT_FALSE(vfs.exists("/lib/libc.so.6/x"));
  EXPECT_FALSE(vfs.exists("/lib/link/x"));
  EXPECT_EQ(vfs.read("/lib/libc.so.6/x"), nullptr);
  EXPECT_TRUE(vfs.list("/lib/libc.so.6").empty());
  EXPECT_FALSE(vfs.write_file("/lib/libc.so.6/x", "y"));
  EXPECT_FALSE(vfs.write_file("/lib/libc.so.6/x/y", "z"));
  EXPECT_FALSE(vfs.mkdirs("/lib/libc.so.6/d"));
  EXPECT_FALSE(vfs.symlink("/lib/libc.so.6/l", "/lib"));
  EXPECT_FALSE(vfs.remove("/lib/libc.so.6/x"));
  // Mutations never follow links: a linked directory is not a parent.
  vfs.mkdirs("/real");
  vfs.symlink("/alias", "/real");
  EXPECT_FALSE(vfs.write_file("/alias/new", "n"));
  EXPECT_FALSE(vfs.exists("/real/new"));
  EXPECT_TRUE(vfs.is_file("/lib/libc.so.6"));
}

}  // namespace
}  // namespace feam::site
