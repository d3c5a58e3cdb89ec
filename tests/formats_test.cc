// Tests for the interchange formats (SNAP, MatrixMarket).
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "src/io/formats.h"

namespace egraph {
namespace {

class FormatsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("egraph_fmt_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Write(const std::string& name, const std::string& content) {
    const std::string path = (dir_ / name).string();
    std::ofstream out(path);
    out << content;
    return path;
  }
  std::filesystem::path dir_;
};

TEST_F(FormatsTest, SnapBasic) {
  const std::string path = Write("g.snap",
                                 "# Directed graph\n"
                                 "# FromNodeId\tToNodeId\n"
                                 "0\t1\n"
                                 "1\t2\n"
                                 "5\t0\n");
  const EdgeList graph = ReadSnapEdges(path);
  EXPECT_EQ(graph.num_vertices(), 6u);
  ASSERT_EQ(graph.num_edges(), 3u);
  EXPECT_EQ(graph.edges()[2], (Edge{5, 0}));
}

TEST_F(FormatsTest, SnapRejectsGarbage) {
  const std::string path = Write("bad.snap", "0 1\nhello world\n");
  EXPECT_THROW(ReadSnapEdges(path), std::runtime_error);
}

TEST_F(FormatsTest, MatrixMarketGeneralReal) {
  const std::string path = Write("m.mtx",
                                 "%%MatrixMarket matrix coordinate real general\n"
                                 "% comment\n"
                                 "3 3 2\n"
                                 "1 2 0.5\n"
                                 "3 1 2.0\n");
  const EdgeList graph = ReadMatrixMarket(path);
  EXPECT_EQ(graph.num_vertices(), 3u);
  ASSERT_EQ(graph.num_edges(), 2u);
  EXPECT_EQ(graph.edges()[0], (Edge{0, 1}));
  EXPECT_FLOAT_EQ(graph.weights()[0], 0.5f);
  EXPECT_EQ(graph.edges()[1], (Edge{2, 0}));
}

TEST_F(FormatsTest, MatrixMarketSymmetricMirrors) {
  const std::string path = Write("s.mtx",
                                 "%%MatrixMarket matrix coordinate pattern symmetric\n"
                                 "3 3 2\n"
                                 "2 1\n"
                                 "3 3\n");  // diagonal: not mirrored
  const EdgeList graph = ReadMatrixMarket(path);
  ASSERT_EQ(graph.num_edges(), 3u);  // (1,0), (0,1), (2,2)
  EXPECT_FALSE(graph.has_weights());
}

TEST_F(FormatsTest, MatrixMarketRejectsBadBanner) {
  const std::string path = Write("bad.mtx", "%%NotMatrixMarket\n1 1 0\n");
  EXPECT_THROW(ReadMatrixMarket(path), std::runtime_error);
}

TEST_F(FormatsTest, MatrixMarketRejectsCountMismatch) {
  const std::string path = Write("bad.mtx",
                                 "%%MatrixMarket matrix coordinate pattern general\n"
                                 "3 3 5\n"
                                 "1 2\n");
  EXPECT_THROW(ReadMatrixMarket(path), std::runtime_error);
}

TEST_F(FormatsTest, MatrixMarketRejectsOutOfRangeIndex) {
  const std::string path = Write("bad.mtx",
                                 "%%MatrixMarket matrix coordinate pattern general\n"
                                 "2 2 1\n"
                                 "3 1\n");
  EXPECT_THROW(ReadMatrixMarket(path), std::runtime_error);
  // A dimension past the 32-bit vertex ids: cast to VertexId, 2^32 + 1
  // would load as one vertex and the entry would wrap to the self-loop 0->0.
  const std::string wide = Write("wide.mtx",
                                 "%%MatrixMarket matrix coordinate pattern general\n"
                                 "4294967297 2 1\n"
                                 "4294967297 1\n");
  EXPECT_THROW(ReadMatrixMarket(wide), std::runtime_error);
}

}  // namespace
}  // namespace egraph
