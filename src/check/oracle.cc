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
    uint32_t words = prog.dataSize() / kWordBytes;
    for (uint32_t i = 0; i < words; ++i) {
        Addr addr = i * kWordBytes;
        Word expect = 0;
        for (unsigned b = 0; b < kWordBytes; ++b)
            expect |= static_cast<Word>(oracle.data[addr + b])
                      << (8 * b);
        Word actual = arch.inspectWord(addr);
        if (actual == expect)
            continue;
        ++diff.totalWordDiffs;
        if (diff.words.size() < max_report)
            diff.words.push_back({addr, expect, actual});
    }
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
