#include "domains/crypto.hpp"

#include <cmath>

#include "behavior/behavior.hpp"
#include "dsl/exploration.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"
#include "tech/components.hpp"

namespace dslayer::domains {

using dsl::Bindings;
using dsl::Compliance;
using dsl::ConsistencyConstraint;
using dsl::Core;
using dsl::Property;
using dsl::PropertyPath;
using dsl::ReuseLibrary;
using dsl::Value;
using dsl::ValueDomain;

namespace {

// ---------------------------------------------------------------------------
// Option-string <-> substrate-enum mapping
// ---------------------------------------------------------------------------

rtl::Algorithm parse_algorithm(const std::string& s) {
  if (s == to_string(rtl::Algorithm::kMontgomery)) return rtl::Algorithm::kMontgomery;
  if (s == to_string(rtl::Algorithm::kBrickell)) return rtl::Algorithm::kBrickell;
  throw PreconditionError(cat("unknown algorithm option '", s, "'"));
}

rtl::AdderKind parse_adder(const std::string& s) {
  if (s == to_string(rtl::AdderKind::kCarryLookahead)) return rtl::AdderKind::kCarryLookahead;
  if (s == to_string(rtl::AdderKind::kCarrySave)) return rtl::AdderKind::kCarrySave;
  if (s == to_string(rtl::AdderKind::kRipple)) return rtl::AdderKind::kRipple;
  throw PreconditionError(cat("unknown adder option '", s, "'"));
}

rtl::MultiplierKind parse_multiplier(const std::string& s) {
  if (s == to_string(rtl::MultiplierKind::kNone)) return rtl::MultiplierKind::kNone;
  if (s == to_string(rtl::MultiplierKind::kArray)) return rtl::MultiplierKind::kArray;
  if (s == to_string(rtl::MultiplierKind::kMuxBased)) return rtl::MultiplierKind::kMuxBased;
  throw PreconditionError(cat("unknown multiplier option '", s, "'"));
}

tech::Technology parse_technology(const std::string& process, const std::string& layout) {
  const tech::Process p = process == to_string(tech::Process::k070um) ? tech::Process::k070um
                                                                      : tech::Process::k035um;
  const tech::LayoutStyle l = layout == to_string(tech::LayoutStyle::kGateArray)
                                  ? tech::LayoutStyle::kGateArray
                                  : tech::LayoutStyle::kStandardCell;
  return tech::technology(p, l);
}

bigint::MontVariant parse_variant(const std::string& s) {
  for (bigint::MontVariant v : bigint::kAllMontVariants) {
    if (s == to_string(v)) return v;
  }
  throw PreconditionError(cat("unknown scanning method '", s, "'"));
}

std::string text_of(const Bindings& bindings, const char* name, const char* fallback) {
  const Value v = dsl::get_or_empty(bindings, name);
  return v.kind() == Value::Kind::kText ? v.as_text() : fallback;
}

double number_of(const Bindings& bindings, const char* name, double fallback) {
  const Value v = dsl::get_or_empty(bindings, name);
  return v.kind() == Value::Kind::kNumber ? v.as_number() : fallback;
}

// ---------------------------------------------------------------------------
// Hierarchy (Figs. 5 and 7)
// ---------------------------------------------------------------------------

void build_hierarchy(dsl::DesignSpaceLayer& layer, const CryptoLayerOptions& options) {
  dsl::Cdo& op = layer.space().add_root(
      "Operator", "Arithmetic/logic operators for encryption applications (Fig. 5)");
  op.add_property(Property::requirement(
      kEOL, ValueDomain::positive_integers(),
      "Effective operand length in bits (Req1; cryptographic moduli reach 2^1000+)",
      Unit::kBits));
  op.add_property(Property::generalized_issue(
      "OperatorClass", {"LogicArithmetic", "Modular"},
      "Functional family: conventional logic/arithmetic vs modular arithmetic"));

  // --- Logic/Arithmetic branch ---------------------------------------------
  dsl::Cdo& la = op.specialize("LogicArithmetic");
  la.add_property(Property::generalized_issue("Function", {"Logic", "Arithmetic"},
                                              "Bit-level logic vs numeric arithmetic"));
  la.specialize("Logic");
  dsl::Cdo& arith = la.specialize("Arithmetic");
  arith.add_property(Property::generalized_issue("Operation", {"Adder", "Multiplier"},
                                                 "The arithmetic operation implemented"));

  dsl::Cdo& adder = arith.specialize("Adder");
  adder.add_property(
      Property::requirement(kWordSize, ValueDomain::positive_integers(),
                            "Required adder word size", Unit::kBits)
          .with_compliance(Compliance::kCoreAtLeast, kMetricWidth));
  adder.add_property(Property::generalized_issue(
      kAdderAlgorithm,
      {to_string(rtl::AdderKind::kCarryLookahead), to_string(rtl::AdderKind::kCarrySave),
       to_string(rtl::AdderKind::kRipple)},
      "Adder logic style (Fig. 10: carry-look-ahead vs carry-save specializations)"));
  adder.specialize(to_string(rtl::AdderKind::kCarryLookahead), "CarryLookAhead");
  adder.specialize(to_string(rtl::AdderKind::kCarrySave), "CarrySave");
  adder.specialize(to_string(rtl::AdderKind::kRipple), "RippleCarry");

  dsl::Cdo& mult = arith.specialize("Multiplier");
  mult.add_property(
      Property::requirement(kWordSize, ValueDomain::positive_integers(),
                            "Required multiplier word size", Unit::kBits)
          .with_compliance(Compliance::kCoreAtLeast, kMetricWidth));
  mult.add_property(Property::design_issue(
      "MultiplierStyle",
      ValueDomain::options({to_string(rtl::MultiplierKind::kArray),
                            to_string(rtl::MultiplierKind::kMuxBased)}),
      "Array multiplier vs multiplexer-based multiplier-by-constant"));

  // --- Modular branch ----------------------------------------------------------
  dsl::Cdo& modular = op.specialize("Modular");
  modular.add_property(Property::generalized_issue(
      "ModularOperation", {"Exponentiator", "Multiplier"},
      "Modular exponentiation (M^E mod N) vs modular multiplication (AxB mod M)"));

  dsl::Cdo& expo = modular.specialize("Exponentiator");
  expo.add_property(Property::design_issue(
      kExpMethod,
      ValueDomain::options({to_string(rtl::ExpMethod::kBinary),
                            to_string(rtl::ExpMethod::kMary4),
                            to_string(rtl::ExpMethod::kMary16)}),
      "Exponent scanning: binary square-and-multiply vs m-ary fixed windows "
      "(2^w-1 stored multiples buy fewer multiplications per bit)"));
  expo.add_property(Property::requirement(
                        kModExpLatency, ValueDomain::real_range(0.0, 1.0e12),
                        "Maximum delay of one modular exponentiation at the 768-bit "
                        "operating point of [10]/[11]",
                        Unit::kMicroseconds)
                        .with_compliance(Compliance::kCoreAtMost, kMetricModExpUs768));

  // --- OMM: Operator - Modular - Multiplier (Fig. 8) -----------------------------
  dsl::Cdo& omm = modular.specialize("Multiplier");
  omm.add_property(Property::requirement(
      kOperandCoding,
      ValueDomain::options({"2's complement", "Sign-Magnitude", "Unsigned"}),
      "Req2: coding of the input operands"));
  omm.add_property(Property::requirement(
      kResultCoding,
      ValueDomain::options({"2's complement", "Sign-Magnitude", "Unsigned", "Redundant"}),
      "Req3: acceptable coding of the result (Redundant permits carry-save outputs)"));
  omm.add_property(Property::requirement(
      kModuloIsOdd, ValueDomain::options({"Guaranteed", "NotGuaranteed"}),
      "Req4: is the modulus guaranteed odd? (prime moduli of cryptography are)"));
  omm.add_property(Property::requirement(
      kLatencyBound, ValueDomain::real_range(0.0, 1.0e12),
      "Req5: maximum delay of one modular multiplication", Unit::kMicroseconds));
  omm.add_property(Property::requirement(
      kPowerBudget, ValueDomain::real_range(0.0, 1.0e12),
      "Maximum dynamic power of the block (the paper's Section 6 power extension)",
      Unit::kMilliwatts));
  omm.add_property(Property::generalized_issue(
      kImplStyle, {"Hardware", "Software"},
      "DI1: hardware and software designs offer radically different performance "
      "ranges (Fig. 6), so this issue partitions the space"));

  // --- OMM-H (Fig. 11) ---------------------------------------------------------
  dsl::Cdo& hw = omm.specialize("Hardware");
  hw.add_property(Property::design_issue(
      kLayoutStyle,
      ValueDomain::options({to_string(tech::LayoutStyle::kStandardCell),
                            to_string(tech::LayoutStyle::kGateArray)}),
      "DI5: the layout styles collapsed into the generalized 'Hardware' option"));
  if (options.hierarchy == OmmHierarchy::kAlgorithmFirst) {
    hw.add_property(Property::design_issue(
        kFabTech,
        ValueDomain::options({to_string(tech::Process::k035um), to_string(tech::Process::k070um)}),
        "DI6: fabrication technology"));
  }
  hw.add_property(Property::design_issue(
                      kRadix, ValueDomain::powers_of_two(),
                      "DI3: digits per iteration; higher radix trades area for cycles (CC2)")
                      .with_default(Value::number(2.0)));
  hw.add_property(Property::design_issue(
                      kNumSlices, ValueDomain::positive_integers(),
                      "DI4: number of slices composed to cover the EOL; an integration "
                      "parameter, so it does not filter slice cores")
                      .without_core_filtering());
  hw.add_property(Property::design_issue(
      kSliceWidth, ValueDomain::positive_integers(),
      "Slice width in bits: bounds the internal carry chains and thus the clock"));
  hw.add_property(Property::design_issue(
      kLoopAdder,
      ValueDomain::options({to_string(rtl::AdderKind::kCarryLookahead),
                            to_string(rtl::AdderKind::kCarrySave)}),
      "DI7 projection: implementation of the additions in the loop (Fig. 10 line 3); "
      "conceptual design recurses into the Adder CDO"));
  hw.add_property(Property::design_issue(
      kLoopMultiplier,
      ValueDomain::options({to_string(rtl::MultiplierKind::kNone),
                            to_string(rtl::MultiplierKind::kArray),
                            to_string(rtl::MultiplierKind::kMuxBased)}),
      "DI7 projection: implementation of the digit multiplications in the loop"));
  hw.add_property(Property::figure_of_merit(
      kMaxCombDelay, Unit::kNanoseconds,
      "CC3's dependent: combinational-delay rank of alternative behavioral descriptions"));

  if (options.hierarchy == OmmHierarchy::kAlgorithmFirst) {
    // The paper's Fig. 7: the algorithm partitions the space.
    hw.add_property(Property::generalized_issue(
        kAlgorithm,
        {to_string(rtl::Algorithm::kMontgomery), to_string(rtl::Algorithm::kBrickell)},
        "DI2 (generalized): Montgomery consistently dominates Brickell when usable "
        "(Fig. 9), so the choice is not a fine-grained trade-off"));

    dsl::Cdo& hm = hw.specialize(to_string(rtl::Algorithm::kMontgomery));
    hm.add_property(Property::figure_of_merit(
        kLatencyCycles, Unit::kNone, "CC2's dependent: loop iterations per multiplication"));
    hm.add_behavior(behavior::montgomery_bd(2, 64));
    hm.add_behavior(behavior::montgomery_bd(4, 64));

    dsl::Cdo& hb = hw.specialize(to_string(rtl::Algorithm::kBrickell));
    hb.add_property(Property::figure_of_merit(
        kLatencyCycles, Unit::kNone, "Loop iterations per multiplication"));
    hb.add_behavior(behavior::brickell_bd(2, 64));
  } else {
    // Technology-first coexisting hierarchy (Section 6 future work):
    // commit to a process before an algorithm; the algorithm remains a
    // regular trade-off issue within each technology family.
    hw.add_property(Property::design_issue(
        kAlgorithm,
        ValueDomain::options(
            {to_string(rtl::Algorithm::kMontgomery), to_string(rtl::Algorithm::kBrickell)}),
        "DI2 demoted to a fine-grained issue in the technology-first hierarchy"));
    hw.add_property(Property::figure_of_merit(
        kLatencyCycles, Unit::kNone,
        "CC2's dependent (Montgomery closed form; meaningful once Algorithm=Montgomery)"));
    hw.add_behavior(behavior::montgomery_bd(2, 64));
    hw.add_behavior(behavior::montgomery_bd(4, 64));
    hw.add_behavior(behavior::brickell_bd(2, 64));
    hw.add_property(Property::generalized_issue(
        kFabTech,
        {to_string(tech::Process::k035um), to_string(tech::Process::k070um)},
        "DI6 (generalized): the process families offer distinct area/delay/power "
        "ranges, partitioning the space for cost-driven environments"));
    hw.specialize(to_string(tech::Process::k035um), "um035");
    hw.specialize(to_string(tech::Process::k070um), "um070");
  }

  // --- OMM-S ---------------------------------------------------------------------
  dsl::Cdo& sw = omm.specialize("Software");
  sw.add_property(Property::generalized_issue(
      kPlatform, {"PC-Processor", "Embedded-RISC", "Embedded-DSP"},
      "Programmable platform executing the routine (Section 2.2's software branch)"));
  dsl::Cdo& pc = sw.specialize("PC-Processor", "PCProcessor");
  pc.add_property(Property::design_issue(
      kCodeQuality,
      ValueDomain::options({to_string(swmodel::CodeQuality::kC),
                            to_string(swmodel::CodeQuality::kAssembly)}),
      "Compiled C vs hand-optimized assembly (ref [12])"));
  pc.add_property(Property::design_issue(
      kScanning,
      ValueDomain::options({"SOS", "CIOS", "FIOS", "FIPS", "CIHS"}),
      "Montgomery word-scanning method (Koc-Acar-Kaliski)"));
  sw.specialize("Embedded-RISC", "EmbeddedRISC");
  sw.specialize("Embedded-DSP", "EmbeddedDSP");
}

// ---------------------------------------------------------------------------
// Consistency constraints (Fig. 13)
// ---------------------------------------------------------------------------

void add_constraints(dsl::DesignSpaceLayer& layer, const CryptoLayerOptions& options) {
  // CC1: the Montgomery algorithm requires an odd modulus.
  layer.add_constraint(ConsistencyConstraint::inconsistent_when(
      "CC1", "Montgomery Algorithm requires odd modulo",
      {PropertyPath::parse(cat(kModuloIsOdd, "@Multiplier"))},
      {PropertyPath::parse(cat(kAlgorithm, "@*.Multiplier.Hardware"))},
      {dsl::PredicateAtom::equals(kModuloIsOdd, Value::text("NotGuaranteed")),
       dsl::PredicateAtom::equals(kAlgorithm,
                                  Value::text(to_string(rtl::Algorithm::kMontgomery)))}));

  // CC2: the greater the radix, the smaller the latency in cycles:
  // L = 2 * EOL / R + 1 (the paper's closed form, defined for carry-save
  // Montgomery multipliers).
  const char* cc2_scope = options.hierarchy == OmmHierarchy::kAlgorithmFirst
                              ? "*.Hardware.Montgomery"
                              : "*.Multiplier.Hardware";
  layer.add_constraint(ConsistencyConstraint::formula(
      "CC2", "The greater the Radix, the smaller the latency in #cycles",
      {PropertyPath::parse(cat(kRadix, "@", cc2_scope)),
       PropertyPath::parse(cat(kEOL, "@Operator"))},
      PropertyPath::parse(cat(kLatencyCycles, "@", cc2_scope)),
      [](const Bindings& b) {
        const double eol = dsl::get_or_empty(b, kEOL).as_number();
        const double radix = dsl::get_or_empty(b, kRadix).as_number();
        return Value::number(2.0 * eol / radix + 1.0);
      }));

  // CC3: behavioral decomposition impacts delay — rank BDs with the
  // BehaviorDelayEstimator when no design data exists yet.
  layer.add_constraint(ConsistencyConstraint::estimator(
      "CC3", "Behavioral Decomposition impacts delay",
      {PropertyPath::parse("BehavioralDecomposition@*.Multiplier.Hardware")},
      PropertyPath::parse(cat(kMaxCombDelay, "@*.Multiplier.Hardware")),
      "BehaviorDelayEstimator"));

  if (options.dominance_rules) {
  // CC4: for Montgomery with EOL >= 32, only carry-save adders should
  // implement the loop additions — anything else is dominated (unbounded
  // carry propagation, low performance, large area).
  layer.add_constraint(ConsistencyConstraint::dominance_when(
      "CC4", "Inferior solutions eliminated: Montgomery & EOL >= 32 requires Carry-Save adders",
      {PropertyPath::parse(cat(kEOL, "@Operator")),
       PropertyPath::parse(cat(kAlgorithm, "@*.Multiplier.Hardware"))},
      {PropertyPath::parse(cat(kLoopAdder, "@*.Multiplier.Hardware"))},
      {dsl::PredicateAtom::equals(kAlgorithm,
                                  Value::text(to_string(rtl::Algorithm::kMontgomery))),
       dsl::PredicateAtom::compares(kEOL, dsl::PredicateAtom::Cmp::kGe, 32.0),
       dsl::PredicateAtom::not_equals(kLoopAdder,
                                      Value::text(to_string(rtl::AdderKind::kCarrySave)))}));

  // CC5 (the paper's "similar constraint"): multiplexer-based multipliers
  // for the loop multiplications, for any EOL (radix >= 4 designs only —
  // radix 2 has no digit multiplier).
  layer.add_constraint(ConsistencyConstraint::dominance_when(
      "CC5", "Multiplexer-based multipliers dominate for the loop multiplications (any EOL)",
      {PropertyPath::parse(cat(kAlgorithm, "@*.Multiplier.Hardware")),
       PropertyPath::parse(cat(kRadix, "@*.Multiplier.Hardware"))},
      {PropertyPath::parse(cat(kLoopMultiplier, "@*.Multiplier.Hardware"))},
      {dsl::PredicateAtom::equals(kAlgorithm,
                                  Value::text(to_string(rtl::Algorithm::kMontgomery))),
       dsl::PredicateAtom::compares(kRadix, dsl::PredicateAtom::Cmp::kGe, 4.0),
       dsl::PredicateAtom::equals(kLoopMultiplier,
                                  Value::text(to_string(rtl::MultiplierKind::kArray)))}));
  }

  // CC6 (Fig. 6's lesson as a heuristic): software cannot reach
  // sub-100-microsecond multiplications at cryptographic operand lengths.
  layer.add_constraint(ConsistencyConstraint::inconsistent_when(
      "CC6", "Software implementations cannot meet aggressive latency bounds (Fig. 6 ranges)",
      {PropertyPath::parse(cat(kLatencyBound, "@Multiplier")),
       PropertyPath::parse(cat(kEOL, "@Operator"))},
      {PropertyPath::parse(cat(kImplStyle, "@Multiplier"))},
      {dsl::PredicateAtom::equals(kImplStyle, Value::text("Software")),
       dsl::PredicateAtom::compares(kLatencyBound, dsl::PredicateAtom::Cmp::kLt, 100.0),
       dsl::PredicateAtom::compares(kEOL, dsl::PredicateAtom::Cmp::kGe, 256.0)}));

  // CC7: the sliced datapath must cover the operand:
  // NumberOfSlices * SliceWidth >= EOL.
  layer.add_constraint(ConsistencyConstraint::inconsistent_when(
      "CC7", "Slices must cover the operand: NumberOfSlices x SliceWidth >= EOL",
      {PropertyPath::parse(cat(kEOL, "@Operator")),
       PropertyPath::parse(cat(kSliceWidth, "@*.Multiplier.Hardware"))},
      {PropertyPath::parse(cat(kNumSlices, "@*.Multiplier.Hardware"))},
      {dsl::PredicateAtom::product(kNumSlices, kSliceWidth, dsl::PredicateAtom::Cmp::kLt,
                                   kEOL)}));
}

// ---------------------------------------------------------------------------
// Reuse libraries
// ---------------------------------------------------------------------------

void populate_hardware_library(ReuseLibrary& lib) {
  const auto add_slice_core = [&lib](const rtl::CatalogEntry& entry, unsigned width,
                                     const tech::Technology& technology) {
    const rtl::SliceConfig config = rtl::make_config(entry, width, technology);
    const rtl::SliceDesign slice(config);
    const rtl::MultiplierDesign one(config, 1);
    Core core(cat("mm", entry.design_no, "_w", width, "_", technology.name()), kPathOMM);
    core.bind(kImplStyle, Value::text("Hardware"))
        .bind(kAlgorithm, Value::text(to_string(entry.algorithm)))
        .bind(kRadix, Value::number(entry.radix))
        .bind(kLoopAdder, Value::text(to_string(entry.adder)))
        .bind(kLoopMultiplier, Value::text(to_string(entry.multiplier)))
        .bind(kSliceWidth, Value::number(width))
        .bind(kLayoutStyle, Value::text(to_string(technology.layout)))
        .bind(kFabTech, Value::text(to_string(technology.process)))
        .bind(kResultCoding, Value::text(entry.adder == rtl::AdderKind::kCarrySave
                                             ? "Redundant"
                                             : "2's complement"))
        .bind(kOperandCoding, Value::text("2's complement"));
    core.set_metric(kMetricArea, slice.area())
        .set_metric(kMetricClockNs, slice.clock_ns())
        .set_metric(kMetricLatencyNs, slice.latency_ns(width))
        .set_metric(kMetricPowerMw, one.power_mw())
        .set_metric(kMetricWidth, width);
    core.add_view("algorithm", cat("ip://lsi/mm", entry.design_no, "/alg.vhd"))
        .add_view("rt", cat("ip://lsi/mm", entry.design_no, "/w", width, "/rtl.vhd"))
        .add_view("physical", cat("ip://lsi/mm", entry.design_no, "/w", width, "/gds2"));
    lib.add(std::move(core));
  };

  const tech::Technology t035 =
      tech::technology(tech::Process::k035um, tech::LayoutStyle::kStandardCell);
  for (const rtl::CatalogEntry& entry : rtl::table1_catalog()) {
    for (unsigned width : rtl::kTable1SliceWidths) {
      add_slice_core(entry, width, t035);
    }
  }
  // A few cores in other technologies so DI5/DI6 decisions have bite.
  const tech::Technology t070 =
      tech::technology(tech::Process::k070um, tech::LayoutStyle::kStandardCell);
  const tech::Technology t035ga =
      tech::technology(tech::Process::k035um, tech::LayoutStyle::kGateArray);
  for (const unsigned width : {16u, 64u}) {
    add_slice_core(rtl::table1_catalog()[1], width, t070);   // design #2
    add_slice_core(rtl::table1_catalog()[7], width, t070);   // design #8
    add_slice_core(rtl::table1_catalog()[1], width, t035ga); // design #2
  }
}

void populate_software_library(ReuseLibrary& lib) {
  for (const swmodel::SoftwareCore& sw : swmodel::software_catalog()) {
    Core core(cat("sw_", to_string(sw.variant()), "_",
                  sw.quality() == swmodel::CodeQuality::kC ? "c" : "asm"),
              kPathOMM);
    core.bind(kImplStyle, Value::text("Software"))
        .bind(kPlatform, Value::text("PC-Processor"))
        .bind(kCodeQuality, Value::text(to_string(sw.quality())))
        .bind(kScanning, Value::text(to_string(sw.variant())))
        .bind(kOperandCoding, Value::text("Unsigned"))
        .bind(kResultCoding, Value::text("Unsigned"));
    core.set_metric(kMetricModMulUs1024, sw.mont_mul_us(1024))
        .set_metric(kMetricCodeBytes, sw.code_size_bytes());
    core.add_view("algorithm", cat("ip://kak96/", to_string(sw.variant()), ".pseudo"))
        .add_view("source", cat("ip://kak96/", to_string(sw.variant()),
                                sw.quality() == swmodel::CodeQuality::kC ? ".c" : ".s"));
    lib.add(std::move(core));
  }
}

void populate_arith_library(ReuseLibrary& lib) {
  const tech::Technology t035 =
      tech::technology(tech::Process::k035um, tech::LayoutStyle::kStandardCell);
  const auto add_adder = [&lib, &t035](rtl::AdderKind kind, unsigned width) {
    tech::GateEval eval;
    switch (kind) {
      case rtl::AdderKind::kCarryLookahead: eval = tech::carry_lookahead_adder(width, t035); break;
      case rtl::AdderKind::kCarrySave: eval = tech::carry_save_row(width, t035); break;
      case rtl::AdderKind::kRipple: eval = tech::ripple_carry_adder(width, t035); break;
    }
    Core core(cat("add_", to_string(kind), "_w", width), kPathAdder);
    core.bind(kAdderAlgorithm, Value::text(to_string(kind)));
    core.set_metric(kMetricArea, eval.area)
        .set_metric(kMetricDelayNs, eval.delay_ns)
        .set_metric(kMetricWidth, width);
    core.add_view("rt", cat("ip://arith/add_", to_string(kind), "_", width, ".vhd"));
    lib.add(std::move(core));
  };
  for (unsigned width : {8u, 16u, 32u, 64u, 128u}) {
    add_adder(rtl::AdderKind::kCarryLookahead, width);
    add_adder(rtl::AdderKind::kCarrySave, width);
    add_adder(rtl::AdderKind::kRipple, width);
  }

  for (unsigned width : {8u, 16u, 32u, 64u}) {
    for (const rtl::MultiplierKind kind :
         {rtl::MultiplierKind::kArray, rtl::MultiplierKind::kMuxBased}) {
      const tech::GateEval eval = kind == rtl::MultiplierKind::kArray
                                      ? tech::array_digit_multiplier(2, width, t035)
                                      : tech::mux_digit_multiplier(2, width, t035);
      Core core(cat("mul_", to_string(kind), "_w", width),
                "Operator.LogicArithmetic.Arithmetic.Multiplier");
      core.bind("MultiplierStyle", Value::text(to_string(kind)));
      core.set_metric(kMetricArea, eval.area)
          .set_metric(kMetricDelayNs, eval.delay_ns)
          .set_metric(kMetricWidth, width);
      lib.add(std::move(core));
    }
  }

  // Composed modular-exponentiation coprocessors: multiplier design x
  // scanning method, evaluated at the 768-bit operating point of [10].
  for (const int design : {2, 5}) {
    for (const unsigned width : {32u, 64u}) {
      const rtl::SliceConfig config =
          rtl::make_config(rtl::table1_catalog()[static_cast<std::size_t>(design - 1)], width,
                           t035);
      const rtl::MultiplierDesign mult = rtl::MultiplierDesign::for_operand_length(config, 768);
      for (const rtl::ExpMethod method : rtl::kAllExpMethods) {
        const rtl::ExponentiatorDesign expo(mult, method);
        Core core(cat("expo_", design, "_w", width, "_", to_string(method)),
                  kPathExponentiator);
        core.bind(kExpMethod, Value::text(to_string(method)))
            .bind(kAlgorithm, Value::text(to_string(config.algorithm)))
            .bind(kRadix, Value::number(config.radix))
            .bind(kSliceWidth, Value::number(width));
        core.set_metric(kMetricModExpUs768, expo.modexp_us(768))
            .set_metric(kMetricArea, expo.area(768))
            .set_metric(kMetricPowerMw, expo.power_mw(768));
        core.add_view("rt", cat("ip://upm/expo/", design, "_", width, ".vhd"));
        lib.add(std::move(core));
      }
    }
  }

  // The hand-built modular exponentiation coprocessor of ref [10].
  Core coproc("rsa_coprocessor_upm", kPathExponentiator);
  coproc.bind(kExpMethod, Value::text("Binary"));
  coproc.set_metric(kMetricArea, 1.1e6)
      .set_metric(kMetricModExpUs768, 2450.0)
      .set_metric(kMetricPowerMw, 310.0);
  coproc.add_view("physical", "ip://upm/rsa-coproc/gds2");
  lib.add(std::move(coproc));
}

// ---------------------------------------------------------------------------
// Requirement filters (compliance too rich for the declarative enum)
// ---------------------------------------------------------------------------

bool latency_filter(const Core& core, const Bindings& bindings) {
  const double bound_us = number_of(bindings, kLatencyBound, 1.0e12);
  const double eol = number_of(bindings, kEOL, 0.0);
  if (eol <= 0.0) return true;  // cannot evaluate until the EOL is known

  const std::string style = text_of(bindings, kImplStyle, "");
  const auto impl = core.binding(kImplStyle);
  const std::string core_style =
      impl.has_value() && impl->kind() == Value::Kind::kText ? impl->as_text() : "";

  if (core_style == "Hardware") {
    const rtl::SliceConfig config = slice_config_from_core(core);
    const rtl::MultiplierDesign design =
        rtl::MultiplierDesign::for_operand_length(config, static_cast<unsigned>(eol));
    return design.latency_ns(static_cast<unsigned>(eol)) / 1000.0 <= bound_us;
  }
  if (core_style == "Software") {
    const swmodel::SoftwareCore sw = software_core_from(core);
    return sw.mont_mul_us(static_cast<unsigned>(eol)) <= bound_us;
  }
  (void)style;
  return true;  // cores of other classes are not latency-constrained here
}

bool power_filter(const Core& core, const Bindings& bindings) {
  const double budget_mw = number_of(bindings, kPowerBudget, 1.0e12);
  const double eol = number_of(bindings, kEOL, 0.0);
  const auto impl = core.binding(kImplStyle);
  if (!impl.has_value() || impl->kind() != Value::Kind::kText ||
      impl->as_text() != "Hardware" || eol <= 0.0) {
    return true;  // only composed hardware blocks draw the budget here
  }
  const rtl::SliceConfig config = slice_config_from_core(core);
  const rtl::MultiplierDesign design =
      rtl::MultiplierDesign::for_operand_length(config, static_cast<unsigned>(eol));
  return design.power_mw() <= budget_mw;
}

}  // namespace

rtl::SliceConfig slice_config_from_core(const Core& core) {
  const auto text = [&core](const char* name) {
    const auto v = core.binding(name);
    if (!v.has_value() || v->kind() != Value::Kind::kText) {
      throw PreconditionError(cat("core '", core.name(), "' lacks text binding '", name, "'"));
    }
    return v->as_text();
  };
  const auto number = [&core](const char* name) {
    const auto v = core.binding(name);
    if (!v.has_value() || v->kind() != Value::Kind::kNumber) {
      throw PreconditionError(cat("core '", core.name(), "' lacks numeric binding '", name, "'"));
    }
    return v->as_number();
  };
  rtl::SliceConfig config;
  config.algorithm = parse_algorithm(text(kAlgorithm));
  config.radix = static_cast<unsigned>(number(kRadix));
  config.adder = parse_adder(text(kLoopAdder));
  config.multiplier = parse_multiplier(text(kLoopMultiplier));
  config.slice_width = static_cast<unsigned>(number(kSliceWidth));
  config.technology = parse_technology(text(kFabTech), text(kLayoutStyle));
  return config;
}

swmodel::SoftwareCore software_core_from(const Core& core) {
  const auto variant = core.binding(kScanning);
  const auto quality = core.binding(kCodeQuality);
  if (!variant.has_value() || !quality.has_value()) {
    throw PreconditionError(cat("core '", core.name(), "' is not a software routine"));
  }
  const swmodel::CodeQuality q = quality->as_text() == to_string(swmodel::CodeQuality::kC)
                                     ? swmodel::CodeQuality::kC
                                     : swmodel::CodeQuality::kAssembly;
  return swmodel::SoftwareCore(parse_variant(variant->as_text()), q, swmodel::pentium60());
}

std::unique_ptr<dsl::DesignSpaceLayer> build_crypto_layer(const CryptoLayerOptions& options) {
  auto layer = std::make_unique<dsl::DesignSpaceLayer>("cryptography");
  build_hierarchy(*layer, options);
  add_constraints(*layer, options);

  populate_hardware_library(layer->add_library("lsi-hardcores"));
  populate_software_library(layer->add_library("soft-ip"));
  populate_arith_library(layer->add_library("arith-blocks"));

  layer->set_core_filter(kLatencyBound, latency_filter);
  layer->set_core_filter(kPowerBudget, power_filter);

  // DI7's schema: the operator kinds appearing in the behavioral
  // descriptions recurse into these classes (Fig. 10's arrows from the
  // modular multiplier's loop into the Adder/Multiplier CDOs).
  layer->set_operator_class(behavior::OpKind::kAdd, kPathAdder);
  layer->set_operator_class(behavior::OpKind::kSub, kPathAdder);
  layer->set_operator_class(behavior::OpKind::kMul,
                            "Operator.LogicArithmetic.Arithmetic.Multiplier");

  layer->index_cores();
  return layer;
}

rtl::ExponentiatorDesign exponentiator_from_core(const Core& core) {
  const auto method_binding = core.binding(kExpMethod);
  const auto width = core.binding(kSliceWidth);
  const auto algorithm = core.binding(kAlgorithm);
  if (!method_binding.has_value() || !width.has_value() || !algorithm.has_value()) {
    throw PreconditionError(cat("core '", core.name(), "' is not a composed exponentiator"));
  }
  rtl::ExpMethod method = rtl::ExpMethod::kBinary;
  for (const rtl::ExpMethod m : rtl::kAllExpMethods) {
    if (to_string(m) == method_binding->as_text()) method = m;
  }
  rtl::SliceConfig config;
  config.algorithm = parse_algorithm(algorithm->as_text());
  config.radix = static_cast<unsigned>(core.binding(kRadix)->as_number());
  config.adder = rtl::AdderKind::kCarrySave;
  config.multiplier = config.radix >= 4 ? rtl::MultiplierKind::kMuxBased
                                        : rtl::MultiplierKind::kNone;
  config.slice_width = static_cast<unsigned>(width->as_number());
  config.technology =
      tech::technology(tech::Process::k035um, tech::LayoutStyle::kStandardCell);
  return rtl::ExponentiatorDesign(rtl::MultiplierDesign::for_operand_length(config, 768),
                                  method);
}

void apply_coprocessor_spec(dsl::ExplorationSession& session) {
  session.set_requirement(kEOL, 768.0);
  session.set_requirement(kOperandCoding, "2's complement");
  session.set_requirement(kResultCoding, "Redundant");
  session.set_requirement(kModuloIsOdd, "Guaranteed");
  session.set_requirement(kLatencyBound, 8.0);
}

}  // namespace dslayer::domains
