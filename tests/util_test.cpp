// Unit tests for the util module: strong units, error handling, CSV, tables,
// and the thread pool's edge cases.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace spacecdn {
namespace {

using namespace spacecdn::literals;

TEST(Units, MillisecondsArithmetic) {
  const Milliseconds a{10.0};
  const Milliseconds b{2.5};
  EXPECT_DOUBLE_EQ((a + b).value(), 12.5);
  EXPECT_DOUBLE_EQ((a - b).value(), 7.5);
  EXPECT_DOUBLE_EQ((a * 2.0).value(), 20.0);
  EXPECT_DOUBLE_EQ((2.0 * a).value(), 20.0);
  EXPECT_DOUBLE_EQ((a / 4.0).value(), 2.5);
  EXPECT_DOUBLE_EQ(a / b, 4.0);
}

TEST(Units, MillisecondsComparisons) {
  EXPECT_LT(Milliseconds{1.0}, Milliseconds{2.0});
  EXPECT_GE(Milliseconds{2.0}, Milliseconds{2.0});
  EXPECT_EQ(Milliseconds{3.0}, Milliseconds{3.0});
}

TEST(Units, MillisecondsConversions) {
  EXPECT_DOUBLE_EQ(Milliseconds::from_seconds(1.5).value(), 1500.0);
  EXPECT_DOUBLE_EQ(Milliseconds::from_minutes(2.0).value(), 120000.0);
  EXPECT_DOUBLE_EQ(Milliseconds{2500.0}.seconds(), 2.5);
}

TEST(Units, CompoundAssignment) {
  Milliseconds t{5.0};
  t += Milliseconds{3.0};
  EXPECT_DOUBLE_EQ(t.value(), 8.0);
  t -= Milliseconds{2.0};
  EXPECT_DOUBLE_EQ(t.value(), 6.0);
  t *= 2.0;
  EXPECT_DOUBLE_EQ(t.value(), 12.0);
  t /= 3.0;
  EXPECT_DOUBLE_EQ(t.value(), 4.0);
}

TEST(Units, KilometersArithmetic) {
  EXPECT_DOUBLE_EQ((Kilometers{3.0} + Kilometers{4.0}).value(), 7.0);
  EXPECT_DOUBLE_EQ((Kilometers{10.0} - Kilometers{4.0}).value(), 6.0);
  EXPECT_DOUBLE_EQ(Kilometers{1.0}.meters(), 1000.0);
  EXPECT_DOUBLE_EQ(Kilometers{8.0} / Kilometers{2.0}, 4.0);
}

TEST(Units, MbpsBytesPerMs) {
  // 8 Mbps = 1 MB/s = 1000 bytes per ms.
  EXPECT_DOUBLE_EQ(Mbps{8.0}.bytes_per_ms(), 1000.0);
}

TEST(Units, MegabytesConversions) {
  EXPECT_DOUBLE_EQ(Megabytes{2.0}.bytes(), 2e6);
  EXPECT_DOUBLE_EQ(Megabytes{2.0}.megabits(), 16.0);
  EXPECT_DOUBLE_EQ(Megabytes::from_bytes(5e6).value(), 5.0);
}

TEST(Units, TransmissionDelay) {
  // 1 MB over 8 Mbps = 1 second.
  EXPECT_DOUBLE_EQ(transmission_delay(1.0_mb, 8.0_mbps).value(), 1000.0);
}

TEST(Units, Literals) {
  EXPECT_DOUBLE_EQ((15_ms).value(), 15.0);
  EXPECT_DOUBLE_EQ((1.5_km).value(), 1.5);
  EXPECT_DOUBLE_EQ((100_mbps).value(), 100.0);
  EXPECT_DOUBLE_EQ((2.5_mb).value(), 2.5);
}

TEST(Units, Streaming) {
  std::ostringstream os;
  os << Milliseconds{12.5} << " / " << Kilometers{3.0};
  EXPECT_EQ(os.str(), "12.5 ms / 3 km");
}

TEST(Error, ExpectMacroThrowsConfigError) {
  EXPECT_THROW(SPACECDN_EXPECT(false, "must fail"), ConfigError);
  EXPECT_NO_THROW(SPACECDN_EXPECT(true, "must pass"));
}

TEST(Error, MessageContainsContext) {
  try {
    SPACECDN_EXPECT(1 == 2, "one is not two");
    FAIL() << "expected throw";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("one is not two"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Error, HierarchyIsCatchable) {
  EXPECT_THROW(throw NotFoundError("x"), Error);
  EXPECT_THROW(throw SimulationError("y"), Error);
  EXPECT_THROW(throw ConfigError("z"), std::runtime_error);
}

TEST(Csv, WritesHeaderAndRows) {
  std::ostringstream os;
  CsvWriter csv(os, {"a", "b"});
  csv.row({"1", "2"});
  csv.row_numeric({3.5, 4.25});
  EXPECT_EQ(os.str(), "a,b\n1,2\n3.5,4.25\n");
  EXPECT_EQ(csv.rows_written(), 2u);
}

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, RejectsWrongArity) {
  std::ostringstream os;
  CsvWriter csv(os, {"a", "b"});
  EXPECT_THROW(csv.row({"only-one"}), ConfigError);
}

TEST(Csv, LabeledRow) {
  std::ostringstream os;
  CsvWriter csv(os, {"name", "x"});
  csv.row_labeled("alpha", {1.25});
  EXPECT_EQ(os.str(), "name,x\nalpha,1.25\n");
}

TEST(Csv, FormatNumber) {
  EXPECT_EQ(CsvWriter::format_number(42.0), "42");
  EXPECT_EQ(CsvWriter::format_number(0.5), "0.5");
  EXPECT_EQ(CsvWriter::format_number(std::nan("")), "nan");
}

TEST(Table, RendersAlignedColumns) {
  ConsoleTable table({"name", "value"});
  table.add_row({"alpha", "1.0"});
  table.add_row({"b", "22.5"});
  std::ostringstream os;
  table.render(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(Table, NumericRowHelper) {
  ConsoleTable table({"k", "v1", "v2"});
  table.add_row("row", {1.234, 5.678}, 2);
  std::ostringstream os;
  table.render(os);
  EXPECT_NE(os.str().find("1.23"), std::string::npos);
  EXPECT_NE(os.str().find("5.68"), std::string::npos);
}

TEST(Table, RejectsWrongArity) {
  ConsoleTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"1", "2", "3"}), ConfigError);
}

TEST(Table, AsciiBar) {
  const std::string bar = ascii_bar("x", 5.0, 10.0, 10);
  EXPECT_NE(bar.find("#####"), std::string::npos);
  EXPECT_EQ(bar.find("######"), std::string::npos);
  const std::string full = ascii_bar("y", 10.0, 10.0, 10);
  EXPECT_NE(full.find("##########"), std::string::npos);
  // Values beyond the max clamp rather than overflow.
  const std::string over = ascii_bar("z", 20.0, 10.0, 10);
  EXPECT_NE(over.find("##########"), std::string::npos);
}

TEST(Table, FormatFixed) {
  EXPECT_EQ(ConsoleTable::format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(ConsoleTable::format_fixed(-1.0, 0), "-1");
}

TEST(ThreadPoolEdges, SingleWorkerPoolRunsInline) {
  ThreadPool pool(1);
  std::vector<int> order;  // no atomics needed: inline execution is serial
  pool.parallel_for(5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolEdges, FirstExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.parallel_for(256,
                        [&](std::size_t i) {
                          ran.fetch_add(1, std::memory_order_relaxed);
                          if (i == 17) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // Lanes stop at the failure flag; not every index needs to have run.
  EXPECT_GE(ran.load(), 1);
  EXPECT_LE(ran.load(), 256);
  // The pool survives a failed sweep.
  std::atomic<int> sum{0};
  pool.parallel_for(10, [&](std::size_t i) {
    sum.fetch_add(static_cast<int>(i), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPoolEdges, NestedParallelForRunsInlineInsteadOfDeadlocking) {
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.parallel_for(4, [&](std::size_t) {
    // From a worker thread, a nested sweep must not re-enter the queue and
    // block on its own completion.
    pool.parallel_for(8, [&](std::size_t j) {
      inner_total.fetch_add(static_cast<int>(j) + 1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner_total.load(), 4 * 36);
}

}  // namespace
}  // namespace spacecdn
