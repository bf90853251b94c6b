#include "workloads/generator.h"

#include "common/log.h"
#include "common/random.h"
#include "isa/assembler.h"
#include "kernel/layout.h"

namespace rsafe::workloads {

using isa::Assembler;
using isa::R0;
using isa::R1;
using isa::R2;
using isa::R3;
using isa::R5;
using isa::R6;
using isa::R7;
using isa::R8;
using isa::R9;
using isa::R13;

namespace k = rsafe::kernel;

namespace {

/** Per-task user-data slice layout. */
constexpr Addr kSliceStride = 0x10000;
constexpr Addr kPktBufOff = 0x0000;     // 2 KiB packet buffer
constexpr Addr kDiskBufOff = 0x1000;    // one disk block
constexpr Addr kScratchOff = 0x2000;    // jmp_buf / scratch

Addr
slice_base(int task)
{
    return k::kUserDataBase + static_cast<Addr>(task) * kSliceStride;
}

/** Emits the body of one unrolled iteration for one task. */
class TaskEmitter {
  public:
    TaskEmitter(Assembler& a, const WorkloadProfile& profile, int task,
                Rng& rng)
        : a_(a), profile_(profile), task_(task), rng_(rng)
    {
    }

    void
    emit_iteration(int iter_index)
    {
        emit_compute(iter_index);
        emit_ws_writes();
        if (rng_.chance(profile_.rdtsc_prob)) {
            a_.rdtsc(R6);
            a_.add(R9, R9, R6);
        }
        if (rng_.chance(profile_.nic_poll_prob))
            emit_nic_poll();
        if (rng_.chance(profile_.disk_read_prob))
            emit_disk(k::kSysDiskRead);
        if (rng_.chance(profile_.disk_write_prob))
            emit_disk(k::kSysDiskWrite);
        if (rng_.chance(profile_.checksum_prob))
            emit_checksum();
        if (rng_.chance(profile_.logmsg_prob))
            emit_logmsg();
        if (rng_.chance(profile_.rec_prob))
            emit_recursion();
        // Guarded on the knob so profiles without storms consume exactly
        // the draw sequence they did before the knob existed (golden
        // workload images must stay bit-identical).
        if (profile_.setjmp_prob > 0 && rng_.chance(profile_.setjmp_prob))
            emit_setjmp_storm();
        if (rng_.chance(profile_.yield_prob))
            emit_syscall0(k::kSysYield);
    }

  private:
    std::string
    lbl(const std::string& stem)
    {
        return strcat_args("t", task_, "_", stem, "_", label_seq_++);
    }

    void
    emit_compute(int iter_index)
    {
        if (profile_.alu_loop <= 0)
            return;
        const auto loop = lbl("alu");
        a_.ldi(R8, profile_.alu_loop);
        a_.ldi(R7, 0);
        a_.label(loop);
        a_.add(R9, R9, R8);
        a_.xori(R9, R9, static_cast<std::int32_t>(iter_index * 2654435761u));
        a_.shli(R6, R9, 1);
        a_.or_(R9, R9, R6);
        a_.addi(R8, R8, -1);
        a_.bne(R8, R7, loop);
    }

    void
    emit_ws_writes()
    {
        const Addr ws_base = k::kWorkingSetBase +
                             static_cast<Addr>(task_) * profile_.ws_pages *
                                 kPageSize;
        for (int w = 0; w < profile_.ws_writes; ++w) {
            const Addr page = rng_.next_below(profile_.ws_pages);
            const Addr offset = rng_.next_below(kPageSize / 8) * 8;
            a_.ldi(R6, static_cast<std::int64_t>(ws_base + page * kPageSize +
                                                 offset));
            a_.st(R6, 0, R9);
        }
    }

    void
    emit_syscall0(Word number)
    {
        a_.ldi(R0, static_cast<std::int64_t>(number));
        a_.syscall();
    }

    void
    emit_nic_poll()
    {
        a_.ldi(R1, static_cast<std::int64_t>(slice_base(task_) + kPktBufOff));
        emit_syscall0(k::kSysNicRecv);
        if (rng_.chance(profile_.nic_send_prob)) {
            // Respond with a small packet when one was received.
            const auto skip = lbl("nosend");
            a_.ldi(R2, 0);
            a_.beq(R0, R2, skip);
            a_.ldi(R1, 96);
            emit_syscall0(k::kSysNicSend);
            a_.label(skip);
        }
    }

    void
    emit_disk(Word number)
    {
        const Addr block =
            rng_.next_below(profile_.devices.disk_blocks);
        a_.ldi(R1, static_cast<std::int64_t>(block));
        a_.ldi(R2, static_cast<std::int64_t>(slice_base(task_) +
                                             kDiskBufOff));
        emit_syscall0(number);
    }

    void
    emit_checksum()
    {
        a_.ldi(R1, static_cast<std::int64_t>(slice_base(task_) + kPktBufOff));
        a_.ldi(R2, profile_.checksum_len);
        emit_syscall0(k::kSysChecksum);
    }

    void
    emit_logmsg()
    {
        a_.ldi(R1, static_cast<std::int64_t>(slice_base(task_) + kPktBufOff));
        a_.ldi(R2, 32);  // well within the kernel buffer
        emit_syscall0(k::kSysLogMsg);
    }

    void
    emit_recursion()
    {
        const auto depth = rng_.next_range(profile_.rec_depth_min,
                                           profile_.rec_depth_max);
        a_.ldi(R1, static_cast<std::int64_t>(depth));
        a_.call("u_rec");
    }

    void
    emit_setjmp_storm()
    {
        const auto depth = rng_.next_range(profile_.setjmp_depth_min,
                                           profile_.setjmp_depth_max);
        a_.ldi(R1, static_cast<std::int64_t>(slice_base(task_) +
                                             kScratchOff));
        a_.ldi(R2, static_cast<std::int64_t>(depth));
        a_.call("u_storm");
    }

    Assembler& a_;
    const WorkloadProfile& profile_;
    int task_;
    Rng& rng_;
    int label_seq_ = 0;
};

}  // namespace

GeneratedWorkload
generate_workload(const WorkloadProfile& profile)
{
    if (profile.num_tasks < 1 ||
        profile.num_tasks > static_cast<int>(k::kMaxTasks) - 1) {
        fatal("generate_workload: bad task count");
    }
    constexpr int kUnroll = 16;

    Assembler a(k::kUserCodeBase);

    // Shared helper: bounded user recursion.
    a.func_begin("u_rec");
    a.ldi(R2, 0);
    a.beq(R1, R2, "u_rec_base");
    a.addi(R1, R1, -1);
    a.call("u_rec");
    a.label("u_rec_base");
    a.ret();
    a.func_end();

    // Shared helpers: user-level setjmp/longjmp (imperfect nesting).
    a.func_begin("u_setjmp");
    a.getsp(R3);
    a.ld(R2, R3, 0);
    a.st(R1, 0, R2);           // jmp_buf[0] = return address
    a.addi(R3, R3, 8);
    a.st(R1, 8, R3);           // jmp_buf[1] = caller sp
    a.st(R1, 16, isa::R10);
    a.st(R1, 24, isa::R11);
    a.st(R1, 32, isa::R12);
    a.st(R1, 40, R13);
    a.ldi(R0, 0);
    a.ret();
    a.func_end();

    a.func_begin("u_longjmp");
    a.ld(isa::R10, R1, 16);
    a.ld(isa::R11, R1, 24);
    a.ld(isa::R12, R1, 32);
    a.ld(R13, R1, 40);
    a.ld(R3, R1, 8);
    a.setsp(R3);
    a.ld(R5, R1, 0);
    a.mov(R0, R2);
    a.jmpr(R5);                // non-procedural transfer: no RAS pop
    a.func_end();

    // Longjmp-storm helpers (RAS false-positive generator): u_storm
    // setjmps, dives `depth` calls deep, and longjmps straight back. The
    // dive chain's return addresses stay on the hardware RAS, so the
    // storm's own ret (and a few after it) mispredict — classic imperfect
    // nesting the AR must classify benign. Emitted only for profiles
    // that use the knob so existing images stay bit-identical.
    if (profile.setjmp_prob > 0) {
        a.func_begin("u_storm");
        a.mov(isa::R10, R1);       // jmp_buf (u_setjmp/longjmp preserve it)
        a.st(isa::R10, 48, R2);    // stash dive depth past the jmp_buf
        a.call("u_setjmp");        // R1 still holds the jmp_buf
        a.ldi(R2, 0);
        a.bne(R0, R2, "u_storm_out");
        a.ld(R1, isa::R10, 48);
        a.call("u_dive");          // never returns: ends in the longjmp
        a.label("u_storm_out");
        a.ret();                   // pops a stale dive entry: mispredict
        a.func_end();

        a.func_begin("u_dive");
        a.ldi(R2, 0);
        a.beq(R1, R2, "u_dive_jump");
        a.addi(R1, R1, -1);
        a.call("u_dive");
        a.ret();                   // unreachable: the dive never unwinds
        a.label("u_dive_jump");
        a.mov(R1, isa::R10);
        a.ldi(R2, 1);
        a.call("u_longjmp");
        a.func_end();
    }

    GeneratedWorkload workload;
    for (int task = 0; task < profile.num_tasks; ++task) {
        Rng rng(profile.seed * 1000003 + task * 7919);
        const std::string entry = strcat_args("t", task, "_entry");
        const std::string outer = strcat_args("t", task, "_outer");
        const std::string done = strcat_args("t", task, "_done");

        a.func_begin(entry);
        const std::uint64_t outer_count =
            (profile.iterations_per_task + kUnroll - 1) / kUnroll;
        a.ldi(R13, static_cast<std::int64_t>(outer_count));
        a.ldi(R9, static_cast<std::int64_t>(profile.seed + task));
        a.label(outer);
        a.ldi(R7, 0);
        a.beq(R13, R7, done);

        TaskEmitter emitter(a, profile, task, rng);
        for (int i = 0; i < kUnroll; ++i)
            emitter.emit_iteration(i);

        a.addi(R13, R13, -1);
        a.jmp(outer);
        a.label(done);
        a.ldi(R0, static_cast<std::int64_t>(k::kSysExit));
        a.syscall();
        a.jmp(done);  // unreachable
        a.func_end();
    }

    workload.image = a.link();
    if (workload.image.end() > k::kUserCodeLimit)
        fatal("generated workload overflows the user code segment");
    for (int task = 0; task < profile.num_tasks; ++task) {
        workload.task_entries.push_back(
            workload.image.symbol(strcat_args("t", task, "_entry")));
    }
    return workload;
}

namespace {

std::unique_ptr<hv::Vm>
build_vm(const GeneratedWorkload& workload, const dev::DeviceConfig& devices,
         const std::vector<isa::Image>& extra_images,
         const std::vector<Addr>& extra_entries)
{
    hv::VmConfig config;
    config.devices = devices;
    auto vm = std::make_unique<hv::Vm>(config);
    vm->load_user_image(workload.image);
    for (const auto& image : extra_images)
        vm->load_user_image(image);
    for (const Addr entry : workload.task_entries)
        vm->add_user_task(entry);
    for (const Addr entry : extra_entries)
        vm->add_user_task(entry);
    vm->finalize();
    return vm;
}

}  // namespace

std::unique_ptr<hv::Vm>
make_vm(const WorkloadProfile& profile,
        const std::vector<isa::Image>& extra_images,
        const std::vector<Addr>& extra_entries)
{
    return build_vm(generate_workload(profile), profile.devices,
                    extra_images, extra_entries);
}

std::function<std::unique_ptr<hv::Vm>()>
vm_factory(const WorkloadProfile& profile,
           const std::vector<isa::Image>& extra_images,
           const std::vector<Addr>& extra_entries)
{
    // Generation is deterministic, so one image serves every VM.
    auto workload = std::make_shared<const GeneratedWorkload>(
        generate_workload(profile));
    return [workload, devices = profile.devices, extra_images,
            extra_entries]() {
        return build_vm(*workload, devices, extra_images, extra_entries);
    };
}

}  // namespace rsafe::workloads
