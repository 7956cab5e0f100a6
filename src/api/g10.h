/**
 * @file
 * Umbrella header for the G10 library.
 *
 * Pulls in the public API surface: platform configuration, the model
 * zoo, the compile-time pipeline (vitality analysis + migration
 * scheduling), the runtime simulator with all design points, the
 * one-call experiment facade, the multi-tenant / parallel experiment
 * engine, the open-loop serving simulator, and the fleet-scale
 * router over heterogeneous serving nodes.
 */

#ifndef G10_API_G10_H
#define G10_API_G10_H

#include "api/experiment.h"
#include "api/report.h"
#include "api/sim_config.h"
#include "common/json_writer.h"
#include "common/stats.h"
#include "common/logging.h"
#include "common/system_config.h"
#include "common/table.h"
#include "common/types.h"
#include "core/g10_compiler.h"
#include "engine/experiment_engine.h"
#include "engine/multi_tenant.h"
#include "engine/workload_mix.h"
#include "fleet/fleet_sim.h"
#include "fleet/fleet_spec.h"
#include "fleet/router.h"
#include "core/sched/plan_builder.h"
#include "core/vitality/vitality.h"
#include "graph/trace.h"
#include "models/model_zoo.h"
#include "policies/baselines.h"
#include "policies/design_point.h"
#include "policies/g10_policy.h"
#include "policies/registry.h"
#include "serve/admission.h"
#include "serve/arrival.h"
#include "serve/serve_sim.h"
#include "serve/serve_spec.h"
#include "sim/runtime/sim_runtime.h"

#endif  // G10_API_G10_H
