// Library exchange: the Fig. 1 deployment story as a workflow.
//
// An IP provider maintains reuse libraries; a design environment maintains
// its own design space layer and references the provider's cores through
// it. This example plays both roles:
//
//   1. the "design environment" builds the cryptography layer and exports
//      it to the interchange format (dslayer-format 1);
//   2. the "receiving environment" imports the text, re-authors the
//      consistency constraints and compliance filters it needs (the text
//      format carries neither: filters are code, and predicate constraints,
//      though plain atom data, are not yet written by the exporter), and
//      explores;
//   3. the provider ships an updated catalog: a new core is added to the
//      imported layer's library and indexed without rebuilding anything —
//      the "open layer" property the paper contrasts with feature-database
//      approaches ("capable of referencing populations of cores which are
//      constantly increasing, or changing").

#include <algorithm>
#include <iostream>
#include <sstream>

#include "domains/crypto.hpp"
#include "dsl/serialize.hpp"
#include "support/strings.hpp"

using namespace dslayer;
using namespace dslayer::domains;

int main() {
  // --- 1. export -------------------------------------------------------------
  auto original = build_crypto_layer();
  const std::string text = dsl::export_layer(*original);
  std::cout << "Exported layer: " << text.size() << " bytes, "
            << std::count(text.begin(), text.end(), '\n') << " lines\n";
  std::cout << "First lines of the interchange text:\n";
  std::istringstream preview(text);
  std::string line;
  for (int i = 0; i < 8 && std::getline(preview, line); ++i) std::cout << "  | " << line << "\n";

  // --- 2. import + re-author the code parts ---------------------------------------
  dsl::ImportResult imported = dsl::import_layer(text);
  std::cout << "\nImported '" << imported.layer->name() << "': "
            << imported.layer->space().all().size() << " CDOs, "
            << imported.layer->libraries().size() << " libraries, "
            << imported.warnings.size() << " warnings\n";

  // The text format does not carry constraints yet; the receiving
  // environment re-authors the ones it needs (here: just CC1, the
  // odd-modulo rule) from the descriptions the export embeds.
  imported.layer->add_constraint(dsl::ConsistencyConstraint::inconsistent_when(
      "CC1", "Montgomery Algorithm requires odd modulo",
      {dsl::PropertyPath::parse(cat(kModuloIsOdd, "@Multiplier"))},
      {dsl::PropertyPath::parse(cat(kAlgorithm, "@*.Multiplier.Hardware"))},
      {dsl::PredicateAtom::equals(kModuloIsOdd, dsl::Value::text("NotGuaranteed")),
       dsl::PredicateAtom::equals(kAlgorithm, dsl::Value::text("Montgomery"))}));

  dsl::ExplorationSession session(*imported.layer, kPathOMM);
  session.set_requirement(kEOL, 768.0);
  session.decide(kImplStyle, "Hardware");
  session.decide(kAlgorithm, "Montgomery");
  std::cout << "Exploration on the imported layer: " << session.candidates().size()
            << " Montgomery candidates\n";

  // --- 3. the provider ships a new core -------------------------------------------
  // A ninth design appears in the vendor catalog; it indexes into the
  // existing hierarchy without touching the layer definition.
  dsl::Core next_gen("mm_nextgen_w64_0.25um", kPathOMM);
  next_gen.bind(kImplStyle, dsl::Value::text("Hardware"))
      .bind(kAlgorithm, dsl::Value::text("Montgomery"))
      .bind(kRadix, dsl::Value::number(4))
      .bind(kLoopAdder, dsl::Value::text("CSA"))
      .bind(kLoopMultiplier, dsl::Value::text("MUX"))
      .bind(kSliceWidth, dsl::Value::number(64));
  next_gen.set_metric(kMetricArea, 21000).set_metric(kMetricClockNs, 1.7);
  dsl::ReuseLibrary* lib = imported.layer->library("lsi-hardcores");
  lib->add(std::move(next_gen));
  imported.layer->index_cores();
  std::cout << "After the vendor update: " << session.candidates().size()
            << " Montgomery candidates (the new core joined the region it belongs to)\n";
  return 0;
}
