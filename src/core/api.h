// Demeter public API umbrella header.
//
// Pulls in everything a downstream user needs to build a tiered-memory
// simulation: the host (HostMemory, Hypervisor, Vm), provisioning
// (DemeterBalloon, VirtioBalloon, HotplugProvisioner), and the
// guest-delegated TMM engine (DemeterPolicy with its RangeTree classifier
// and BalancedRelocator).
//
// Quickstart:
//
//   HostMemory memory({TierSpec::LocalDram(fmem), TierSpec::Pmem(smem)});
//   EventQueue events;
//   Hypervisor hyper(&memory, &events);
//   Vm& vm = hyper.CreateVm(VmConfig{...});
//   GuestProcess& proc = vm.kernel().CreateProcess();
//   DemeterPolicy demeter;
//   demeter.Attach(vm, proc, /*start=*/0);
//   ... drive accesses via vm.ExecuteAccess() or the harness Machine ...
//
// See examples/quickstart.cc for the full flow. For multi-configuration
// sweeps (many workloads/policies/VM counts), the preferred entry point is
// the src/runner experiment orchestrator: build ExperimentSpecs and submit
// them to an ExperimentRunner (src/runner/runner.h), which runs each at its
// base seed on a worker pool and returns spec-ordered results.

#ifndef DEMETER_SRC_CORE_API_H_
#define DEMETER_SRC_CORE_API_H_

#include "src/balloon/balloon.h"
#include "src/core/demeter_policy.h"
#include "src/core/policy.h"
#include "src/core/range_tree.h"
#include "src/core/relocator.h"
#include "src/hyper/hypervisor.h"
#include "src/hyper/vm.h"
#include "src/mem/host_memory.h"
#include "src/mem/tier.h"
#include "src/sim/event_queue.h"

#endif  // DEMETER_SRC_CORE_API_H_
