// Layer interchange format.
//
// The paper's deployment story (Section 1, Fig. 1): "each design
// environment should develop its own design space layer, tailored to the
// application domains of interest, and then use such a layer to reference
// available cores, stored in reuse libraries maintained by the
// IP-providers themselves". That requires layers and core catalogs to
// travel as DATA between environments (the VSI alliance context of
// Section 3). This module provides a line-based, diff-friendly text format
// for the data parts of a layer:
//
//   * the CDO hierarchy with all properties (kinds, domains, units,
//     defaults, compliance rules, generalized flags),
//   * every reuse library with its cores (class paths, bindings, metrics,
//     design-data views).
//
// NOT serialized (documented on export; the export embeds every
// constraint's description as a comment so a receiving environment can
// re-author it):
//   * predicate constraints (CC1/CC4) — atom conjunctions, so data, but
//     this text format does not carry atoms yet (the catalog journal,
//     storage/catalog_journal.hpp, does),
//   * formula and estimator-binding constraints (C++ callables / tool
//     names bound to code),
//   * behavioral descriptions (structural IR; re-attach programmatically),
//   * custom core filters and context builders.
//
// Custom integer-set domains round-trip by well-known name ("positive",
// "pow2"); other predicates degrade to "positive" with an import warning.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dsl/layer.hpp"

namespace dslayer::dsl {

/// Serializes the data parts of `layer` into the interchange text.
/// Throws DefinitionError if an option string contains the reserved '|'.
std::string export_layer(const DesignSpaceLayer& layer);

/// The hierarchy-only prefix of export_layer: format header, layer name,
/// constraint comments, and the full CDO tree — no libraries. Snapshots
/// (src/storage/snapshot.cpp) fingerprint this text to detect that a
/// snapshot was taken against a different code-defined hierarchy.
std::string export_hierarchy(const DesignSpaceLayer& layer);

/// Result of parsing an interchange text.
struct ImportResult {
  std::unique_ptr<DesignSpaceLayer> layer;
  /// Non-fatal degradations (e.g. custom integer domains widened).
  std::vector<std::string> warnings;
};

/// Parses interchange text produced by export_layer (or authored by hand).
/// Indexes the imported cores before returning. Throws DefinitionError on
/// malformed input.
ImportResult import_layer(const std::string& text);

}  // namespace dslayer::dsl
