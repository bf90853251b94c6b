#ifndef RSAFE_HV_VM_H_
#define RSAFE_HV_VM_H_

#include <memory>
#include <vector>

#include "common/types.h"
#include "cpu/cpu.h"
#include "dev/device_hub.h"
#include "isa/program.h"
#include "kernel/kernel_builder.h"
#include "kernel/layout.h"
#include "mem/phys_mem.h"

/**
 * @file
 * A complete virtual machine: guest memory, the virtual CPU, the device
 * complement, the guest kernel image, and the firmware-style setup that
 * seeds task stacks before boot.
 *
 * One Vm instance plays each of the paper's three roles: the recorded VM,
 * the checkpointing-replayer VM, and alarm-replayer VMs — the difference
 * is only in which environment (recorder/replayer) is bound to the CPU
 * and how the VMCS is programmed.
 */

namespace rsafe::hv {

/** A task to create at boot. */
struct TaskSpec {
    Addr entry = 0;
    bool is_kthread = false;
};

/** Construction parameters of a Vm. */
struct VmConfig {
    std::size_t ram_bytes = kernel::kGuestRamBytes;
    std::size_t ras_depth = cpu::Ras::kDefaultDepth;
    dev::DeviceConfig devices;
};

/** A fully assembled guest machine. */
class Vm {
  public:
    explicit Vm(const VmConfig& config);

    /** Load a user program image (call before finalize()). */
    void load_user_image(const isa::Image& image);

    /** Add a user task starting at @p entry (call before finalize()). */
    void add_user_task(Addr entry);

    /**
     * Seed task stacks and boot state. Creates the idle kernel thread in
     * slot 0 plus every added user task, applies W^X page permissions,
     * and points the CPU at the kernel's boot entry.
     */
    void finalize();

    /** Component access. @{ */
    cpu::Cpu& cpu() { return *cpu_; }
    const cpu::Cpu& cpu() const { return *cpu_; }
    mem::PhysMem& mem() { return *mem_; }
    const mem::PhysMem& mem() const { return *mem_; }
    dev::DeviceHub& hub() { return *hub_; }
    const dev::DeviceHub& hub() const { return *hub_; }
    const kernel::GuestKernel& guest_kernel() const { return kernel_; }
    /** The user images loaded via load_user_image, in load order. */
    const std::vector<isa::Image>& user_images() const
    {
        return user_images_;
    }
    const VmConfig& config() const { return config_; }
    /** @} */

    /** Combined RAM+disk content hash (the determinism oracle). */
    std::uint64_t state_hash() const;

  private:
    VmConfig config_;
    const kernel::GuestKernel& kernel_;  ///< shared by every Vm
    std::unique_ptr<mem::PhysMem> mem_;
    std::unique_ptr<dev::DeviceHub> hub_;
    std::unique_ptr<cpu::Cpu> cpu_;
    std::vector<TaskSpec> tasks_;
    std::vector<isa::Image> user_images_;
    bool finalized_ = false;
};

}  // namespace rsafe::hv

#endif  // RSAFE_HV_VM_H_
