/**
 * @file
 * The five DNN training workloads of the paper's Table 1, built
 * structurally (layer by layer, forward + backward + optimizer) at a
 * requested batch size.
 *
 * A `scale_down` factor divides the batch size (and is meant to be paired
 * with SystemConfig::scaledDown) so the full evaluation sweeps finish in
 * minutes instead of the artifact's ~20 hours; memory-to-capacity ratios
 * and compute-to-transfer ratios are preserved.
 */

#ifndef G10_MODELS_MODEL_ZOO_H
#define G10_MODELS_MODEL_ZOO_H

#include <string>
#include <vector>

#include "common/spec_reader.h"
#include "graph/trace.h"
#include "models/cost_model.h"

namespace g10 {

/** The evaluated workloads (paper Table 1). */
enum class ModelKind
{
    BertBase,     ///< BERT-Base encoder, CoLA-style classification
    ViT,          ///< ViT-Base/16, ImageNet
    Inceptionv3,  ///< torchvision Inception v3, ImageNet
    ResNet152,    ///< torchvision ResNet-152, ImageNet
    SENet154,     ///< SENet-154, ImageNet
};

/** Canonical model name as used in the paper's figures. */
const char* modelName(ModelKind kind);

/** Parse a model name (case-insensitive); fatal() on unknown names. */
ModelKind modelKindFromName(const std::string& name);

/** modelKindFromName() for a spec-file value: fails at its location. */
ModelKind modelKindOf(const SpecValue& v);

/**
 * Non-fatal variant: false when @p name is not a zoo model (e.g. the
 * model name of a synthetic saved trace). @p out is untouched then.
 */
bool tryModelKindFromName(const std::string& name, ModelKind* out);

/** All five models, in the paper's figure order. */
std::vector<ModelKind> allModels();

/** The paper's Figure 11 batch size for each model. */
int paperBatchSize(ModelKind kind);

/**
 * Ideal (infinite-memory) per-sample training time implied by the
 * paper's Fig. 15 ideal curves, used to calibrate the roofline model's
 * absolute scale to the authors' A100 kernel profiles (the roofline
 * preserves per-kernel *relative* cost; this pins the total).
 */
TimeNs paperIdealPerSampleNs(ModelKind kind);

/** Build one full training-iteration trace. */
KernelTrace buildModel(ModelKind kind, int batch_size,
                       const CostModel& cost_model = CostModel());

/**
 * Build with batch divided by @p scale_down (floor 1). Pair with
 * SystemConfig::scaledDown(scale_down).
 */
KernelTrace buildModelScaled(ModelKind kind, int batch_size,
                             unsigned scale_down,
                             const CostModel& cost_model = CostModel());

// Individual builders (exposed for tests). `ws_cap` bounds cuDNN-style
// conv workspaces (scaled down together with the platform).
KernelTrace buildBertBase(int batch, const CostModel& cm);
KernelTrace buildViT(int batch, const CostModel& cm);
KernelTrace buildInceptionv3(int batch, const CostModel& cm,
                             Bytes ws_cap = 4 * GiB);
KernelTrace buildResNet152(int batch, const CostModel& cm,
                           Bytes ws_cap = 4 * GiB);
KernelTrace buildSENet154(int batch, const CostModel& cm,
                          Bytes ws_cap = 4 * GiB);

}  // namespace g10

#endif  // G10_MODELS_MODEL_ZOO_H
