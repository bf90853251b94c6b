#include "hv/vm.h"

#include "common/log.h"
#include "kernel/layout.h"

namespace rsafe::hv {

namespace k = rsafe::kernel;

namespace {

/** The guest kernel, built once per process (the build is deterministic). */
const k::GuestKernel&
shared_kernel()
{
    static const k::GuestKernel kernel = k::build_kernel();
    return kernel;
}

}  // namespace

Vm::Vm(const VmConfig& config)
    : config_(config), kernel_(shared_kernel())
{
    mem_ = std::make_unique<mem::PhysMem>(config.ram_bytes);
    hub_ = std::make_unique<dev::DeviceHub>(config.devices, mem_.get());
    cpu_ = std::make_unique<cpu::Cpu>(mem_.get(), config.ras_depth);
    mem_->load_image(kernel_.image);
    // Slot 0 is always the idle kernel thread; it opens the interrupt
    // window and halts the machine when the last user task exits.
    tasks_.push_back(TaskSpec{kernel_.idle_entry, /*is_kthread=*/true});
}

void
Vm::load_user_image(const isa::Image& image)
{
    if (finalized_)
        fatal("Vm: load_user_image after finalize");
    if (image.base() < k::kUserCodeBase || image.end() > k::kUserCodeLimit)
        fatal("Vm: user image outside the user code segment");
    mem_->load_image(image);
    user_images_.push_back(image);
}

void
Vm::add_user_task(Addr entry)
{
    if (finalized_)
        fatal("Vm: add_user_task after finalize");
    if (tasks_.size() >= k::kMaxTasks)
        fatal("Vm: too many tasks");
    tasks_.push_back(TaskSpec{entry, /*is_kthread=*/false});
}

void
Vm::finalize()
{
    if (finalized_)
        fatal("Vm: finalize called twice");
    finalized_ = true;

    // Seed the task table and stacks (the bootloader's job). Each fresh
    // task's stack holds exactly one word: the address the scheduler's
    // non-procedural return will pop on the task's first activation.
    Word live_user = 0;
    for (std::size_t slot = 0; slot < tasks_.size(); ++slot) {
        const TaskSpec& spec = tasks_[slot];
        const Addr ts = k::task_struct_addr(slot);
        const Addr seed_sp = k::task_stack_top(slot) - 8;
        const Addr target = spec.is_kthread ? kernel_.finish_kthread
                                            : kernel_.finish_fork;
        mem_->write_raw(seed_sp, 8, target);
        mem_->write_raw(ts + k::kTaskOffTid, 8, slot);
        mem_->write_raw(ts + k::kTaskOffState, 8, k::kTaskStateRunnable);
        mem_->write_raw(ts + k::kTaskOffSavedSp, 8, seed_sp);
        mem_->write_raw(ts + k::kTaskOffEntry, 8, spec.entry);
        mem_->write_raw(ts + k::kTaskOffKind, 8, spec.is_kthread ? 1 : 0);
        if (!spec.is_kthread)
            ++live_user;
    }
    mem_->write_raw(k::kSchedLiveUserTasks, 8, live_user);

    // W^X permissions: code is never writable, data is never executable.
    mem_->set_perms(0, kPageSize, mem::kPermNone);  // null page
    mem_->set_perms(k::kIvtBase, kPageSize, mem::kPermRW);
    mem_->set_perms(k::kKernelCodeBase,
                    k::kKernelCodeLimit - k::kKernelCodeBase, mem::kPermRX);
    mem_->set_perms(k::kKernelDataBase,
                    k::kKernelDataLimit - k::kKernelDataBase, mem::kPermRW);
    mem_->set_perms(k::kTaskStackBase, k::kMaxTasks * k::kTaskStackSize,
                    mem::kPermRW);
    mem_->set_perms(k::kUserCodeBase, k::kUserCodeLimit - k::kUserCodeBase,
                    mem::kPermRX);
    // The declared JIT carve-out at the tail of user code stays writable
    // so sanctioned runtime code generation is possible; the W^X
    // detector polices what actually runs from it.
    mem_->set_perms(k::kJitRegionBase,
                    k::kJitRegionLimit - k::kJitRegionBase, mem::kPermRWX);
    mem_->set_perms(k::kUserDataBase, k::kUserDataLimit - k::kUserDataBase,
                    mem::kPermRW);
    mem_->set_perms(k::kWorkingSetBase,
                    k::kWorkingSetLimit - k::kWorkingSetBase, mem::kPermRW);

    // Boot state: kernel mode, interrupts off, at the kernel entry, on a
    // scratch boot stack (the tail of the last task-stack page is unused
    // until that many tasks exist).
    auto& state = cpu_->state();
    state.pc = kernel_.boot;
    state.sp = k::task_stack_top(k::kMaxTasks - 1);
    state.mode = cpu::Mode::kKernel;
    state.iflag = false;

    // Fresh boot: nothing dirty yet from the loader's perspective.
    mem_->store().clear_dirty();
    hub_->disk().clear_dirty();
}

std::uint64_t
Vm::state_hash() const
{
    std::uint64_t hash = mem_->store().content_hash();
    hash ^= hub_->disk().content_hash() + 0x9e3779b97f4a7c15ULL +
            (hash << 6) + (hash >> 2);
    return hash;
}

}  // namespace rsafe::hv
