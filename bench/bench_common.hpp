// Shared setup for the standalone ablation benches (the figure/table presets
// run through `rhw_run <preset>` — tools/rhw_run.cpp — and use none of
// this).
#pragma once

#include <cstdio>
#include <string>

#include "data/synth_cifar.hpp"
#include "exp/table_printer.hpp"
#include "models/zoo.hpp"

namespace rhw::bench {

struct Workbench {
  data::SynthCifar data;
  models::TrainedModel trained;
  data::Dataset eval_set;  // evaluation subset (RHW_EVAL_COUNT-sized)
};

inline Workbench load_workbench(const std::string& arch,
                                const std::string& dataset,
                                int64_t default_eval = 256) {
  Workbench wb;
  wb.data = data::make_dataset_by_name(dataset);
  wb.trained = models::get_trained(arch, dataset, wb.data);
  wb.eval_set = wb.data.test.head(exp::eval_count(default_eval));
  return wb;
}

// Deep copy of a trained model (weights + BN statistics), eval mode. Zoo
// models are built with the default width/input size, so the defaults match.
inline models::Model clone_model(const models::Model& src) {
  return models::clone_model(src);
}

inline void banner(const std::string& title, const std::string& subtitle) {
  std::printf("\n=== %s ===\n%s\n\n", title.c_str(), subtitle.c_str());
  std::fflush(stdout);
}

}  // namespace rhw::bench
