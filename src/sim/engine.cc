/**
 * @file
 * The threaded-code execution engine. Every transformation here is a
 * pure speed optimization: the engine replays the interpreter's exact
 * per-instruction sequence of floating-point operations, counter
 * updates and subsystem calls, so its outputs -- final NVM state,
 * registers, energy ledger, stats, event streams -- are bit-identical
 * to `interp` (the engine-equivalence ctest enforces this).
 *
 * Two layers of speedup:
 *
 *  1. Predecoded ops (cpu/decoded.hh) dispatched by one switch: no
 *     per-step field decode, no per-step register bounds checks,
 *     shift immediates pre-masked. The per-instruction cycle and
 *     energy accounting is the energy meter's inline retire charge
 *     (EnergyMeter::retireCycles), the same one the interpreter
 *     calls.
 *  2. Inlined per-instruction policy check (PolicyFastPath): the JIT
 *     threshold `backupCostNowNj()*margin + slackNj` is cached while
 *     nothing that can change the backup cost has run (every
 *     backupCostNowNj() implementation is a pure function of state
 *     mutated only by memory traffic, task boundaries, backups,
 *     restores and power failures -- exactly the events that clear
 *     `costValid`). Stateful policies fall back to the virtual call.
 */

#include "sim/engine.hh"

#include <atomic>
#include <cstdlib>

#include "common/log.hh"
#include "isa/alu.hh"
#include "sim/simulator.hh"

namespace nvmr
{

// ----------------------------------------------------------------------
// Engine selection
// ----------------------------------------------------------------------

namespace
{

EngineKind gEngine = EngineKind::Default;

/** NVMR_ENGINE, read on every resolution (once per run, never per
 *  instruction) so a process can change it between runs. */
EngineKind
engineFromEnv()
{
    const char *env = std::getenv("NVMR_ENGINE");
    if (!env || !*env)
        return EngineKind::Default;
    return parseEngineKind(env);
}

} // namespace

const char *
engineKindName(EngineKind kind)
{
    switch (kind) {
      case EngineKind::Default: return "default";
      case EngineKind::Interp: return "interp";
      case EngineKind::Threaded: return "threaded";
      default: return "<bad>";
    }
}

bool
engineKindFromName(const std::string &name, EngineKind &out)
{
    if (name == "default") {
        out = EngineKind::Default;
        return true;
    }
    if (name == "interp" || name == "interpreter") {
        out = EngineKind::Interp;
        return true;
    }
    if (name == "threaded") {
        out = EngineKind::Threaded;
        return true;
    }
    return false;
}

EngineKind
parseEngineKind(const std::string &text)
{
    EngineKind kind;
    if (!engineKindFromName(text, kind))
        fatal("unknown engine '", text,
              "' (expected interp or threaded)");
    return kind;
}

void
setGlobalEngine(EngineKind kind)
{
    gEngine = kind;
}

EngineKind
globalEngine()
{
    return gEngine;
}

EngineKind
resolveEngine(EngineKind requested)
{
    if (requested != EngineKind::Default)
        return requested;
    if (gEngine != EngineKind::Default)
        return gEngine;
    EngineKind env = engineFromEnv();
    if (env != EngineKind::Default)
        return env;
    return EngineKind::Threaded;
}

// ----------------------------------------------------------------------
// Threaded engine
// ----------------------------------------------------------------------

namespace
{

// Policy fast-path modes, as template parameters so the hot loop
// compiles to exactly the code each mode needs.
constexpr int kPolGeneric = 0;
constexpr int kPolEnergy = 1;
constexpr int kPolPeriod = 2;
constexpr int kPolNone = 3;

// session() outcomes (power failures leave via PowerFailure instead).
constexpr int kSessionCompleted = 1;
constexpr int kSessionStop = 2;

/**
 * Execute one ALU op against the register file. Mirrors the
 * corresponding Cpu::step() cases exactly; rd is never the zero
 * register (the predecoder folds those to Discard).
 */
#if defined(__GNUC__)
[[gnu::always_inline]]
#endif
inline void
execAlu(const DecodedOp &f, Word *r)
{
    const Word a = r[f.rs1];
    const Word b = r[f.rs2];
    switch (f.kind) {
      case XOp::Add: r[f.rd] = a + b; break;
      case XOp::Sub: r[f.rd] = a - b; break;
      case XOp::Mul: r[f.rd] = a * b; break;
      case XOp::Div:
        r[f.rd] = alu::div(static_cast<SWord>(a),
                           static_cast<SWord>(b));
        break;
      case XOp::Rem:
        r[f.rd] = alu::rem(static_cast<SWord>(a),
                           static_cast<SWord>(b));
        break;
      case XOp::And: r[f.rd] = a & b; break;
      case XOp::Or: r[f.rd] = a | b; break;
      case XOp::Xor: r[f.rd] = a ^ b; break;
      case XOp::Sll: r[f.rd] = alu::sll(a, alu::shiftAmount(b)); break;
      case XOp::Srl: r[f.rd] = alu::srl(a, alu::shiftAmount(b)); break;
      case XOp::Sra: r[f.rd] = alu::sra(a, alu::shiftAmount(b)); break;
      case XOp::Slt:
        r[f.rd] = static_cast<SWord>(a) < static_cast<SWord>(b) ? 1 : 0;
        break;
      case XOp::Sltu: r[f.rd] = a < b ? 1 : 0; break;
      case XOp::Addi: r[f.rd] = a + static_cast<Word>(f.imm); break;
      case XOp::Andi: r[f.rd] = a & static_cast<Word>(f.imm); break;
      case XOp::Ori: r[f.rd] = a | static_cast<Word>(f.imm); break;
      case XOp::Xori: r[f.rd] = a ^ static_cast<Word>(f.imm); break;
      case XOp::Slli: // imm pre-masked by the predecoder
        r[f.rd] = alu::sll(a, static_cast<unsigned>(f.imm));
        break;
      case XOp::Srli:
        r[f.rd] = alu::srl(a, static_cast<unsigned>(f.imm));
        break;
      case XOp::Srai:
        r[f.rd] = alu::sra(a, static_cast<unsigned>(f.imm));
        break;
      case XOp::Slti:
        r[f.rd] = static_cast<SWord>(a) < f.imm ? 1 : 0;
        break;
      case XOp::Muli: r[f.rd] = a * static_cast<Word>(f.imm); break;
      case XOp::Lui: r[f.rd] = static_cast<Word>(f.imm); break;
      case XOp::Discard: break; // timing only
      default: break;           // unreachable: caller dispatched
    }
}

} // namespace

void
ThreadedEngine::firePolicyBackup()
{
    // Mirrors Simulator::maybePolicyBackup() once shouldBackup() is
    // known to be true.
    s.requestBackup(BackupReason::Policy);
    costValid = false;
    if (policyHibernates)
        s.hibernate();
}

template <int M>
inline void
ThreadedEngine::policyAfterStep()
{
    if constexpr (M == kPolEnergy) {
        if (!costValid) {
            rhs = s.arch->backupCostNowNj() * margin + slackNj;
            costValid = true;
        }
        if (s.meter.capacitor().usableNj() <= rhs)
            firePolicyBackup();
    } else if constexpr (M == kPolPeriod) {
        if (s.meter.activeCycles() - s.lastBackupActive >= period)
            firePolicyBackup();
    } else if constexpr (M == kPolGeneric) {
        s.maybePolicyBackup();
    }
    // kPolNone: never fires.
}

/**
 * One powered session: execute until the program completes, the
 * budget/cancel path gives up, or a PowerFailure unwinds to
 * mainLoop(). The PC lives in a local; Cpu::_pc and _instret are
 * updated at every instruction retire so any throw -- from a memory
 * op (instruction not retired) or from the cycle accounting
 * (retired) -- observes exactly the interpreter's CPU state.
 */
template <int M>
int
ThreadedEngine::session(unsigned &cancel_check)
{
    Cpu &cpu = s.cpu;
    DataPort &port = cpu.port;
    Word *const r = cpu.regs.data();
    const DecodedOp *const ops = image->ops.data();
    const uint32_t text_size = image->size();
    const std::atomic<bool> *const cancel = s.opts.cancel;
    const uint64_t max_cycles = s.opts.maxCycles;

    uint32_t pc = cpu._pc;

    EnergyMeter &meter = s.meter;

    for (;;) {
        // Per-instruction preamble, identical to the interpreter loop:
        // budget first, then the snapshot point (the same boundary the
        // interpreter fires at), the coarse cancel poll, and the fetch
        // bounds check.
        if (meter.totalCycles() > max_cycles)
            return kSessionStop;
        if (s.snapPending)
            s.fireSnapshotPoint();
        if (cancel && ++cancel_check >= 1024) {
            cancel_check = 0;
            if (cancel->load(std::memory_order_relaxed))
                return kSessionStop;
        }
        panic_if(pc >= text_size,
                 "PC out of range: ", pc, " in ", s.program.name);
        const DecodedOp &o = ops[pc];
        Cycles cyc = o.cycles;
        bool taken;

        // Each case leaves `pc` at the next instruction; the retire
        // below is shared. Memory and task ops may throw before
        // retiring, leaving Cpu::_pc at this instruction exactly as
        // Cpu::step() does. ALU ops, the most common kind, take one
        // compare before execAlu's own switch.
        if (o.kind < kFirstNonAlu) {
            execAlu(o, r);
            ++pc;
        } else {
            switch (o.kind) {
              case XOp::Ld: {
                const Word v =
                    port.loadWord(r[o.rs1] + static_cast<Word>(o.imm));
                if (o.rd != kRegZero)
                    r[o.rd] = v;
                costValid = false;
                ++pc;
                break;
              }
              case XOp::Ldb: {
                const Word v =
                    port.loadByte(r[o.rs1] + static_cast<Word>(o.imm));
                if (o.rd != kRegZero)
                    r[o.rd] = v;
                costValid = false;
                ++pc;
                break;
              }
              case XOp::St:
                port.storeWord(r[o.rs1] + static_cast<Word>(o.imm),
                               r[o.rs2]);
                costValid = false;
                ++pc;
                break;
              case XOp::Stb:
                port.storeByte(r[o.rs1] + static_cast<Word>(o.imm),
                               static_cast<uint8_t>(r[o.rs2]));
                costValid = false;
                ++pc;
                break;

              case XOp::Beq: taken = r[o.rs1] == r[o.rs2]; goto branch;
              case XOp::Bne: taken = r[o.rs1] != r[o.rs2]; goto branch;
              case XOp::Blt:
                taken = static_cast<SWord>(r[o.rs1]) <
                        static_cast<SWord>(r[o.rs2]);
                goto branch;
              case XOp::Bge:
                taken = static_cast<SWord>(r[o.rs1]) >=
                        static_cast<SWord>(r[o.rs2]);
                goto branch;
              case XOp::Bltu: taken = r[o.rs1] < r[o.rs2]; goto branch;
              case XOp::Bgeu: taken = r[o.rs1] >= r[o.rs2]; goto branch;
              branch:
                if (taken) {
                    pc = static_cast<uint32_t>(o.imm);
                    cyc += o.takenExtra;
                } else {
                    ++pc;
                }
                break;

              case XOp::Jmp: pc = static_cast<uint32_t>(o.imm); break;
              case XOp::Jal:
                if (o.rd != kRegZero)
                    r[o.rd] = pc + 1;
                pc = static_cast<uint32_t>(o.imm);
                break;
              case XOp::Jr:
                pc = r[o.rs1] + static_cast<uint32_t>(o.imm);
                break;

              case XOp::Halt:
                // Same order as Cpu::step() + the interpreter loop: record
                // the halt (with the retiring instruction's 1-based
                // instret), retire without advancing the PC, account the
                // cycle, then take the final backup. Either of the last
                // two can throw; a restore clears _halted and re-runs to
                // the HALT, exactly like interp.
                cpu._halted = true;
                if (cpu.tracer)
                    cpu.tracer->record(EventKind::CpuHalt, cpu._instret + 1);
                cpu._pc = pc;
                ++cpu._instret;
                meter.retireCycles(cyc);
                s.requestBackup(BackupReason::Final);
                return kSessionCompleted;

              case XOp::Task:
                // The port call runs before retire (a backup taken inside
                // the task boundary snapshots the TASK's own PC, as in
                // Cpu::step()).
                port.taskBoundary();
                costValid = false;
                ++pc;
                break;

              default: panic("bad decoded op at pc=", pc);
            }
        }
        cpu._pc = pc;
        ++cpu._instret;
        meter.retireCycles(cyc);
        policyAfterStep<M>();
    }
}

template <int M>
bool
ThreadedEngine::mainLoop()
{
    // Mirrors the interpreter's main loop: one powered session at a
    // time, PowerFailure handled exactly as its per-step catch does.
    unsigned cancel_check = 0;
    while (s.meter.totalCycles() <= s.opts.maxCycles) {
        try {
            return session<M>(cancel_check) == kSessionCompleted;
        } catch (PowerFailure &) {
            costValid = false;
            s.handlePowerFailure();
            if (s.meter.totalCycles() > s.opts.maxCycles)
                return false;
        }
    }
    return false;
}

bool
ThreadedEngine::run()
{
    image = decodedProgram(s.program);
    policyHibernates = s.policy.hibernateAfterBackup();

    const PolicyFastPath fp = s.policy.fastPath();
    margin = fp.margin;
    slackNj = fp.slackNj;
    period = fp.period;

    switch (fp.mode) {
      case PolicyFastPath::Mode::EnergyThreshold:
        return mainLoop<kPolEnergy>();
      case PolicyFastPath::Mode::CyclePeriod:
        return mainLoop<kPolPeriod>();
      case PolicyFastPath::Mode::None:
        return mainLoop<kPolNone>();
      default:
        return mainLoop<kPolGeneric>();
    }
}

} // namespace nvmr
