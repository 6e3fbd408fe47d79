#include <gtest/gtest.h>

#include "techlib/techlib.hpp"

namespace {

using namespace polaris;
using netlist::CellType;

TEST(TechLibrary, RelativeCostOrdering) {
  const auto lib = techlib::TechLibrary::default_library();
  // NAND is the cheapest 2-input function; XOR costs more; DFF most.
  EXPECT_LT(lib.area(CellType::kNand, 2), lib.area(CellType::kAnd, 2));
  EXPECT_LT(lib.area(CellType::kAnd, 2), lib.area(CellType::kXor, 2));
  EXPECT_LT(lib.area(CellType::kXor, 2), lib.area(CellType::kDff, 1));
  EXPECT_GT(lib.switch_energy(CellType::kXor, 2),
            lib.switch_energy(CellType::kNand, 2));
}

TEST(TechLibrary, InputsAreFree) {
  const auto lib = techlib::TechLibrary::default_library();
  EXPECT_EQ(lib.area(CellType::kInput, 0), 0.0);
  EXPECT_EQ(lib.switch_energy(CellType::kInput, 0), 0.0);
}

TEST(TechLibrary, FanInScaling) {
  const auto lib = techlib::TechLibrary::default_library();
  // n-ary cells cost like their 2-input tree decomposition.
  EXPECT_DOUBLE_EQ(lib.area(CellType::kAnd, 4), 3 * lib.area(CellType::kAnd, 2));
  EXPECT_DOUBLE_EQ(lib.leakage(CellType::kOr, 6), 5 * lib.leakage(CellType::kOr, 2));
  EXPECT_GT(lib.switch_energy(CellType::kAnd, 6),
            lib.switch_energy(CellType::kAnd, 2));
  // Delay grows with tree depth, not linearly with fan-in.
  const double d2 = lib.delay(CellType::kAnd, 2, 1);
  const double d8 = lib.delay(CellType::kAnd, 8, 1);
  EXPECT_GT(d8, d2);
  EXPECT_LT(d8, 7 * d2);
}

TEST(TechLibrary, DelayGrowsWithFanout) {
  const auto lib = techlib::TechLibrary::default_library();
  EXPECT_GT(lib.delay(CellType::kNand, 2, 8), lib.delay(CellType::kNand, 2, 1));
}

TEST(TechLibrary, RandCellHasEnergyCost) {
  // Mask-share sources must not be free, or masked designs would get their
  // randomness at zero power cost.
  const auto lib = techlib::TechLibrary::default_library();
  EXPECT_GT(lib.switch_energy(CellType::kRand, 0), 0.0);
  EXPECT_GT(lib.area(CellType::kRand, 0), 0.0);
}

}  // namespace
