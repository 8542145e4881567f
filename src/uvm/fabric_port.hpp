// FabricPort: the driver stack's view of the multi-GPU fabric.
//
// The port is the dependency seam between src/uvm and src/fabric: the
// driver and eviction engine talk to this abstract interface, and the
// ShardedFabric (fabric/sharded_fabric.hpp) implements it — src/fabric
// depends on src/uvm, never the other way round. A driver with no attached
// port (the single-GPU default) behaves bit-for-bit as before: every fault
// is a host fetch and every eviction writes back over PCIe.
#pragma once

#include "common/types.hpp"
#include "uvm/driver_types.hpp"

namespace uvmsim {

/// How the fabric wants a far fault serviced.
enum class FabricRoute : u8 {
  kHostFetch,  ///< page is homed here: the normal host-migration path
  kForward,    ///< page is homed on another device: fault there instead
};

struct FabricDecision {
  FabricRoute route = FabricRoute::kHostFetch;
  u32 device = kHostDevice;  ///< home device for kForward
};

class FabricPort {
 public:
  virtual ~FabricPort() = default;

  // --- Fault routing --------------------------------------------------------
  /// Decide how device `dev`'s fault on `p` is serviced.
  virtual FabricDecision route_fault(u32 dev, PageId p) = 0;
  /// Re-raise a fault of `from` on the page's home device `home` (placement
  /// forwarding); `wake` fires after the home services it and the reply
  /// crosses the fabric back.
  virtual void forward_fault(u32 from, u32 home, PageId p, WakeCallback wake) = 0;

  // --- Directory maintenance ------------------------------------------------
  virtual void note_page_mapped(u32 dev, PageId p) = 0;
  virtual void note_page_unmapped(u32 dev, PageId p) = 0;

  // --- Prefetch oracle ------------------------------------------------------
  /// May `dev` bring `p` in from the host? False when placement homes the
  /// page elsewhere — prefetch plans must skip such pages.
  [[nodiscard]] virtual bool host_fetchable(u32 dev, PageId p) const = 0;
};

}  // namespace uvmsim
