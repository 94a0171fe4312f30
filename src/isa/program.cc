#include "isa/program.hh"

#include "common/log.hh"

namespace nvmr
{

Program::Program(const Program &other)
    : name(other.name), text(other.text), data(other.data),
      labels(other.labels), entry(other.entry)
{
    // Cache slots deliberately left empty: the copy may diverge.
}

Program &
Program::operator=(const Program &other)
{
    if (this != &other) {
        name = other.name;
        text = other.text;
        data = other.data;
        labels = other.labels;
        entry = other.entry;
        invalidateDecoded();
    }
    return *this;
}

Program::Program(Program &&other) noexcept
    : name(std::move(other.name)), text(std::move(other.text)),
      data(std::move(other.data)), labels(std::move(other.labels)),
      entry(other.entry)
{
}

Program &
Program::operator=(Program &&other) noexcept
{
    if (this != &other) {
        name = std::move(other.name);
        text = std::move(other.text);
        data = std::move(other.data);
        labels = std::move(other.labels);
        entry = other.entry;
        invalidateDecoded();
    }
    return *this;
}

uint32_t
Program::labelOf(const std::string &label_name) const
{
    auto it = labels.find(label_name);
    fatal_if(it == labels.end(),
             "program ", name, ": unknown label '", label_name, "'");
    return it->second;
}

Word
Program::initialWord(Addr addr) const
{
    panic_if(addr + kWordBytes > data.size(),
             "initialWord out of range: ", addr);
    Word w = 0;
    for (unsigned i = 0; i < kWordBytes; ++i)
        w |= static_cast<Word>(data[addr + i]) << (8 * i);
    return w;
}

} // namespace nvmr
