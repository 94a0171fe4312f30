#include "cpu/decoded.hh"

#include "common/log.hh"
#include "isa/alu.hh"

namespace nvmr
{

namespace
{

/** Lower one instruction. */
DecodedOp
lower(const Instruction &inst, uint32_t pc, const Program &prog)
{
    panic_if(inst.rd >= kNumRegs || inst.rs1 >= kNumRegs ||
                 inst.rs2 >= kNumRegs,
             "bad register field at pc=", pc, " in ", prog.name);

    DecodedOp op;
    op.rd = inst.rd;
    op.rs1 = inst.rs1;
    op.rs2 = inst.rs2;
    op.imm = inst.imm;
    op.cycles = 1;
    op.takenExtra = 0;

    // ALU kinds mirror the Op order so most rows are a straight map;
    // the discard fold below replaces any of them when rd is the zero
    // register.
    switch (inst.op) {
      case Op::ADD: op.kind = XOp::Add; break;
      case Op::SUB: op.kind = XOp::Sub; break;
      case Op::MUL: op.kind = XOp::Mul; op.cycles = 2; break;
      case Op::DIV: op.kind = XOp::Div; op.cycles = 8; break;
      case Op::REM: op.kind = XOp::Rem; op.cycles = 8; break;
      case Op::AND: op.kind = XOp::And; break;
      case Op::OR: op.kind = XOp::Or; break;
      case Op::XOR: op.kind = XOp::Xor; break;
      case Op::SLL: op.kind = XOp::Sll; break;
      case Op::SRL: op.kind = XOp::Srl; break;
      case Op::SRA: op.kind = XOp::Sra; break;
      case Op::SLT: op.kind = XOp::Slt; break;
      case Op::SLTU: op.kind = XOp::Sltu; break;

      case Op::ADDI: op.kind = XOp::Addi; break;
      case Op::ANDI: op.kind = XOp::Andi; break;
      case Op::ORI: op.kind = XOp::Ori; break;
      case Op::XORI: op.kind = XOp::Xori; break;
      case Op::SLLI:
        op.kind = XOp::Slli;
        op.imm = static_cast<int32_t>(
            alu::shiftAmount(static_cast<Word>(inst.imm)));
        break;
      case Op::SRLI:
        op.kind = XOp::Srli;
        op.imm = static_cast<int32_t>(
            alu::shiftAmount(static_cast<Word>(inst.imm)));
        break;
      case Op::SRAI:
        op.kind = XOp::Srai;
        op.imm = static_cast<int32_t>(
            alu::shiftAmount(static_cast<Word>(inst.imm)));
        break;
      case Op::SLTI: op.kind = XOp::Slti; break;
      case Op::MULI: op.kind = XOp::Muli; op.cycles = 2; break;
      case Op::LUI: op.kind = XOp::Lui; break;

      case Op::LD: op.kind = XOp::Ld; op.cycles = 2; break;
      case Op::LDB: op.kind = XOp::Ldb; op.cycles = 2; break;
      case Op::ST: op.kind = XOp::St; op.cycles = 2; break;
      case Op::STB: op.kind = XOp::Stb; op.cycles = 2; break;

      case Op::BEQ: op.kind = XOp::Beq; op.takenExtra = 2; break;
      case Op::BNE: op.kind = XOp::Bne; op.takenExtra = 2; break;
      case Op::BLT: op.kind = XOp::Blt; op.takenExtra = 2; break;
      case Op::BGE: op.kind = XOp::Bge; op.takenExtra = 2; break;
      case Op::BLTU: op.kind = XOp::Bltu; op.takenExtra = 2; break;
      case Op::BGEU: op.kind = XOp::Bgeu; op.takenExtra = 2; break;

      case Op::JMP: op.kind = XOp::Jmp; op.cycles = 3; break;
      case Op::JAL: op.kind = XOp::Jal; op.cycles = 3; break;
      case Op::JR: op.kind = XOp::Jr; op.cycles = 3; break;

      case Op::HALT: op.kind = XOp::Halt; break;
      case Op::TASK: op.kind = XOp::Task; break;

      default:
        panic("bad opcode at pc=", pc, " in ", prog.name);
    }

    // Writes to the hardwired zero register keep their timing but
    // compute nothing. JAL's link write also discards, but it still
    // redirects the PC so it stays a control op.
    if (op.kind < kFirstNonAlu && op.rd == kRegZero)
        op.kind = XOp::Discard;

    debug_assert(op.cycles <= kMaxOpCycles, "cycle table overflow");
    return op;
}

} // namespace

DecodedProgram
predecode(const Program &prog)
{
    DecodedProgram image;
    image.ops.reserve(prog.text.size());
    for (uint32_t pc = 0; pc < prog.text.size(); ++pc)
        image.ops.push_back(lower(prog.text[pc], pc, prog));
    return image;
}

std::shared_ptr<const DecodedProgram>
decodedProgram(const Program &prog)
{
    return prog.fillOnce(prog._decoded, [&] { return predecode(prog); });
}

} // namespace nvmr
