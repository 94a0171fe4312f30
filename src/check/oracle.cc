#include "check/oracle.hh"

#include "arch/arch.hh"
#include "cpu/cpu.hh"

namespace nvmr
{

StateDiff
diffFinalState(const IntermittentArch &arch, const Program &prog,
               const OracleResult &oracle, const Cpu *cpu,
               size_t max_report)
{
    StateDiff diff;
    diff.totalWordDiffs =
        diffAgainstGolden(arch, prog, oracle, &diff.words, max_report);
    if (cpu && oracle.halted) {
        diff.regsChecked = true;
        for (unsigned i = 0; i < kNumRegs; ++i)
            if (cpu->reg(i) != oracle.regs[i])
                diff.regMismatches.push_back(i);
        diff.pcMismatch = cpu->pc() != oracle.pc;
    }
    return diff;
}

} // namespace nvmr
