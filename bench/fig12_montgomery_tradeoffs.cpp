// Regenerates the paper's Fig. 12: "Evaluation Space for 64-bit Montgomery
// multiplications using 64-bit slices" — designs #1..#6 at slice width 64,
// EOL 64, showing the fine-grained trade-offs the designer explores on the
// leaf CDO: radix, adder implementation (CLA vs CSA) and multiplier
// implementation (array vs mux-based).
//
// Paper points (area, delay ns): #1 (34491, 351), #2 (37299, 175),
// #3 (47533, 262), #4 (67106, 166), #5 (46604, 138), #6 (37829, 201).

#include <fstream>
#include <iostream>

#include "analysis/evaluation_space.hpp"
#include "rtl/modmul_design.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "support/telemetry.hpp"
#include "machine_stamp.hpp"

using namespace dslayer;
using namespace dslayer::rtl;

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::cerr << "usage: " << argv[0] << " [--json <path>]\n";
      return 2;
    }
  }
  constexpr unsigned kEol = 64;
  constexpr unsigned kWidth = 64;
  std::cout << "=== Fig. 12: evaluation space for 64-bit Montgomery multiplications, "
               "64-bit slices ===\n\n";

  const tech::Technology t035 =
      tech::technology(tech::Process::k035um, tech::LayoutStyle::kStandardCell);

  const std::map<int, std::pair<double, double>> paper = {
      {1, {34491, 351}}, {2, {37299, 175}}, {3, {47533, 262}},
      {4, {67106, 166}}, {5, {46604, 138}}, {6, {37829, 201}},
  };

  TextTable table({"Design", "Radix", "Adder", "Mult", "Area", "Delay (ns)", "Paper area",
                   "Paper delay"});
  std::vector<analysis::EvalPoint> points;
  for (int design = 1; design <= 6; ++design) {
    const CatalogEntry& entry = table1_catalog()[static_cast<std::size_t>(design - 1)];
    const SliceDesign slice(make_config(entry, kWidth, t035));
    table.add_row({cat("#", design, "_64"), cat(entry.radix), to_string(entry.adder),
                   to_string(entry.multiplier), format_double(slice.area(), 6),
                   format_double(slice.latency_ns(kEol), 4),
                   format_double(paper.at(design).first, 6),
                   format_double(paper.at(design).second, 4)});
    analysis::EvalPoint p;
    p.id = cat("#", design, "_64");
    p.metrics["area"] = slice.area();
    p.metrics["delay_ns"] = slice.latency_ns(kEol);
    p.attributes["Radix"] = cat(entry.radix);
    p.attributes["Adder"] = to_string(entry.adder);
    p.attributes["Mult"] = to_string(entry.multiplier);
    points.push_back(std::move(p));
  }
  std::cout << table.render();

  const std::vector<std::size_t> pareto = analysis::pareto_front(points, {"area", "delay_ns"});
  std::cout << "\nPareto-optimal designs (area x delay): ";
  for (const std::size_t i : pareto) {
    std::cout << points[i].id << " ";
  }
  std::cout << "\n\nTrade-off observations (paper's Section 5.1.6 narrative):\n";
  const auto& p1 = points[0].metrics;
  const auto& p2 = points[1].metrics;
  const auto& p4 = points[3].metrics;
  const auto& p5 = points[4].metrics;
  std::cout << "  CSA vs CLA (#2 vs #1):  "
            << format_double((1.0 - p2.at("delay_ns") / p1.at("delay_ns")) * 100, 3)
            << "% faster for "
            << format_double((p2.at("area") / p1.at("area") - 1.0) * 100, 3) << "% more area\n";
  std::cout << "  MUX vs MUL (#5 vs #4):  "
            << format_double((1.0 - p5.at("area") / p4.at("area")) * 100, 3)
            << "% smaller at comparable speed (delay x"
            << format_double(p5.at("delay_ns") / p4.at("delay_ns"), 3) << ")\n";
  std::cout << "  radix 4 vs 2 (#5 vs #2): delay x"
            << format_double(p5.at("delay_ns") / p2.at("delay_ns"), 3) << " for area x"
            << format_double(p5.at("area") / p2.at("area"), 3) << "\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot write " << json_path << "\n";
      return 2;
    }
    out.precision(17);
    out << "{\n"
        << "  \"bench\": \"fig12_montgomery_tradeoffs\",\n"
        << "  \"eol\": " << kEol << ",\n  \"slice_width\": " << kWidth << ",\n"
        << bench::machine_json() << ",\n"
        << "  \"designs\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
      const analysis::EvalPoint& p = points[i];
      const int design = static_cast<int>(i) + 1;
      out << "    {\"id\": \"" << telemetry::json_escape(p.id) << "\", "
          << "\"radix\": " << p.attributes.at("Radix") << ", "
          << "\"adder\": \"" << telemetry::json_escape(p.attributes.at("Adder")) << "\", "
          << "\"mult\": \"" << telemetry::json_escape(p.attributes.at("Mult")) << "\", "
          << "\"area\": " << p.metrics.at("area") << ", "
          << "\"delay_ns\": " << p.metrics.at("delay_ns") << ", "
          << "\"paper_area\": " << paper.at(design).first << ", "
          << "\"paper_delay_ns\": " << paper.at(design).second << "}"
          << (i + 1 < points.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"pareto\": [";
    for (std::size_t i = 0; i < pareto.size(); ++i) {
      out << "\"" << telemetry::json_escape(points[pareto[i]].id) << "\""
          << (i + 1 < pareto.size() ? ", " : "");
    }
    out << "]\n}\n";
    std::cout << "\nwrote " << json_path << "\n";
  }
  return 0;
}
