// Quickstart: author a tiny design space layer, index a few cores, explore.
//
// The domain is deliberately small — a FIFO buffer class with one
// generalized issue (memory style) and a handful of cores — so every
// concept of the library fits on one screen:
//
//   1. build a CDO hierarchy with requirements and design issues,
//   2. attach a reuse library and index its cores,
//   3. add a consistency constraint,
//   4. open an exploration session: enter requirements, make decisions,
//      watch the candidate set shrink and the metric ranges report.

#include <iostream>

#include "dsl/exploration.hpp"
#include "dsl/layer.hpp"

using namespace dslayer;
using dsl::Compliance;
using dsl::ConsistencyConstraint;
using dsl::Property;
using dsl::PropertyPath;
using dsl::Value;
using dsl::ValueDomain;

int main() {
  // 1. The design space: FIFOs, discriminated first by memory style.
  dsl::DesignSpaceLayer layer("quickstart");
  dsl::Cdo& fifo = layer.space().add_root("FIFO", "First-in first-out buffers");
  fifo.add_property(Property::requirement("Depth", ValueDomain::positive_integers(),
                                          "Required number of entries")
                        .with_compliance(Compliance::kCoreAtLeast, "depth"));
  fifo.add_property(Property::requirement("MaxLatency", ValueDomain::real_range(0, 1e9),
                                          "Worst-case pop latency (ns)", Unit::kNanoseconds)
                        .with_compliance(Compliance::kCoreAtMost, "latency_ns"));
  fifo.add_property(Property::generalized_issue(
      "MemoryStyle", {"Register-File", "SRAM"},
      "Flip-flop based FIFOs are fast but large; SRAM FIFOs scale deep"));
  dsl::Cdo& rf = fifo.specialize("Register-File", "RegisterFile");
  rf.add_property(Property::design_issue("Bypass", ValueDomain::options({"Yes", "No"}),
                                         "Combinational same-cycle bypass path"));
  fifo.specialize("SRAM");

  // 2. A reuse library with four cores.
  dsl::ReuseLibrary& lib = layer.add_library("fifo-vendor");
  {
    dsl::Core c("ff_fifo_16", "FIFO");
    c.bind("MemoryStyle", Value::text("Register-File")).bind("Bypass", Value::text("Yes"));
    c.set_metric("depth", 16).set_metric("latency_ns", 1.2).set_metric("area", 5200);
    lib.add(std::move(c));
  }
  {
    dsl::Core c("ff_fifo_64", "FIFO");
    c.bind("MemoryStyle", Value::text("Register-File")).bind("Bypass", Value::text("No"));
    c.set_metric("depth", 64).set_metric("latency_ns", 1.6).set_metric("area", 19800);
    lib.add(std::move(c));
  }
  {
    dsl::Core c("sram_fifo_256", "FIFO");
    c.bind("MemoryStyle", Value::text("SRAM"));
    c.set_metric("depth", 256).set_metric("latency_ns", 3.4).set_metric("area", 9100);
    lib.add(std::move(c));
  }
  {
    dsl::Core c("sram_fifo_1k", "FIFO");
    c.bind("MemoryStyle", Value::text("SRAM"));
    c.set_metric("depth", 1024).set_metric("latency_ns", 4.1).set_metric("area", 21000);
    lib.add(std::move(c));
  }
  layer.index_cores();

  // 3. One consistency constraint: deep FIFOs in flip-flops are dominated.
  layer.add_constraint(ConsistencyConstraint::dominance_when(
      "QC1", "Register-file FIFOs deeper than 64 entries are dominated by SRAM",
      {PropertyPath::parse("Depth@FIFO")}, {PropertyPath::parse("MemoryStyle@FIFO")},
      {dsl::PredicateAtom::compares("Depth", dsl::PredicateAtom::Cmp::kGt, 64),
       dsl::PredicateAtom::equals("MemoryStyle", Value::text("Register-File"))}));

  std::cout << layer.document() << "\n";

  // 4. Explore: a 128-deep, latency-bounded FIFO.
  dsl::ExplorationSession session(layer, "FIFO");
  session.set_requirement("Depth", 128.0);
  session.set_requirement("MaxLatency", 5.0);

  std::cout << "Options for MemoryStyle after Depth=128: ";
  for (const auto& option : session.available_options("MemoryStyle")) std::cout << option << " ";
  std::cout << "\n\n";  // QC1 has eliminated Register-File

  session.decide("MemoryStyle", "SRAM");
  std::cout << session.report() << "\n";

  const auto area = session.metric_range("area");
  if (area.has_value()) {
    std::cout << "Area range over candidates: [" << area->min << ", " << area->max << "]\n";
  }

  std::cout << "\nTrace:\n";
  for (const auto& line : session.trace()) std::cout << "  " << line << "\n";
  return 0;
}
