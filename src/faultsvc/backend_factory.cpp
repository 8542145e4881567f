#include "faultsvc/fault_backend.hpp"
#include "faultsvc/gpu_backend.hpp"
#include "faultsvc/host_backend.hpp"

namespace uvmsim {

std::unique_ptr<FaultServiceBackend> make_fault_backend(
    const SystemConfig& sys, const PolicyConfig& pol, u64 footprint_pages) {
  switch (sys.fault_backend) {
    case FaultBackendKind::kHostDriver:
      return std::make_unique<HostDriverBackend>(sys, pol, footprint_pages);
    case FaultBackendKind::kGpuDriven:
      return std::make_unique<GpuDrivenBackend>(sys, pol, footprint_pages);
  }
  return std::make_unique<HostDriverBackend>(sys, pol, footprint_pages);
}

}  // namespace uvmsim
