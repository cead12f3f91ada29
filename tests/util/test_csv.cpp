#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "scratch_path.hpp"
#include "util/csv.hpp"

namespace qplacer {
namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

class CsvTest : public ::testing::Test
{
  protected:
    ScratchPath file_{".csv"};
    const std::string &path_ = file_.path;
};

TEST_F(CsvTest, WritesHeaderAndRows)
{
    {
        CsvWriter csv(path_);
        csv.header({"a", "b"});
        csv.row({"1", "2"});
        csv.row({"3", "4"});
    }
    EXPECT_EQ(slurp(path_), "a,b\n1,2\n3,4\n");
}

TEST_F(CsvTest, RowWidthMismatchIsFatal)
{
    CsvWriter csv(path_);
    csv.header({"a", "b"});
    EXPECT_THROW(csv.row({"only-one"}), std::runtime_error);
}

TEST_F(CsvTest, EscapesSpecialCharacters)
{
    EXPECT_EQ(CsvWriter::cell(std::string("plain")), "plain");
    EXPECT_EQ(CsvWriter::cell(std::string("a,b")), "\"a,b\"");
    EXPECT_EQ(CsvWriter::cell(std::string("say \"hi\"")),
              "\"say \"\"hi\"\"\"");
}

TEST_F(CsvTest, NumericFormatting)
{
    EXPECT_EQ(CsvWriter::cell(1.5), "1.5");
    EXPECT_EQ(CsvWriter::cell(static_cast<long long>(42)), "42");
}

TEST(Csv, UnwritablePathIsFatal)
{
    EXPECT_THROW(CsvWriter("/nonexistent_dir_xyz/file.csv"),
                 std::runtime_error);
}

} // namespace
} // namespace qplacer
