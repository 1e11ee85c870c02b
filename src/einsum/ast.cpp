#include "einsum/ast.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "util/error.hpp"

namespace teaal::einsum
{

std::string
IndexExpr::toString() const
{
    std::ostringstream oss;
    for (std::size_t i = 0; i < vars.size(); ++i)
        oss << (i ? "+" : "") << vars[i];
    if (offset != 0 || vars.empty()) {
        if (!vars.empty())
            oss << (offset >= 0 ? "+" : "");
        oss << offset;
    }
    return oss.str();
}

std::string
TensorRef::toString() const
{
    std::ostringstream oss;
    oss << name;
    if (!indices.empty()) {
        oss << "[";
        for (std::size_t i = 0; i < indices.size(); ++i)
            oss << (i ? "," : "") << indices[i].toString();
        oss << "]";
    }
    return oss.str();
}

std::vector<std::string>
TensorRef::varNames() const
{
    std::vector<std::string> out;
    for (const IndexExpr& ie : indices) {
        for (const std::string& v : ie.vars) {
            if (std::find(out.begin(), out.end(), v) == out.end())
                out.push_back(v);
        }
    }
    return out;
}

std::vector<std::string>
Expression::outputVars() const
{
    return output.varNames();
}

std::vector<std::string>
Expression::iterationVars() const
{
    std::vector<std::string> vars = outputVars();
    for (const TensorRef& in : inputs) {
        for (const std::string& v : in.varNames()) {
            if (std::find(vars.begin(), vars.end(), v) == vars.end())
                vars.push_back(v);
        }
    }
    return vars;
}

std::vector<std::string>
Expression::reductionVars() const
{
    const auto out_vars = outputVars();
    std::vector<std::string> red;
    for (const std::string& v : iterationVars()) {
        if (std::find(out_vars.begin(), out_vars.end(), v) ==
            out_vars.end()) {
            red.push_back(v);
        }
    }
    return red;
}

std::string
Expression::toString() const
{
    std::ostringstream oss;
    oss << output.toString() << " = ";
    switch (kind) {
      case OpKind::Take:
        oss << "take(" << inputs[0].toString() << ", "
            << inputs[1].toString() << ", " << takeArg << ")";
        break;
      case OpKind::Multiply:
        for (std::size_t i = 0; i < inputs.size(); ++i)
            oss << (i ? " * " : "") << inputs[i].toString();
        break;
      case OpKind::Add:
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            if (i)
                oss << (signs[i] < 0 ? " - " : " + ");
            oss << inputs[i].toString();
        }
        break;
      case OpKind::Assign:
        oss << inputs[0].toString();
        break;
    }
    return oss.str();
}

std::string
rankOfVar(const std::string& var)
{
    std::string out = var;
    std::transform(out.begin(), out.end(), out.begin(),
                   [](unsigned char c) {
                       return static_cast<char>(std::toupper(c));
                   });
    return out;
}

std::string
varOfRank(const std::string& rank)
{
    std::string out = rank;
    std::transform(out.begin(), out.end(), out.begin(),
                   [](unsigned char c) {
                       return static_cast<char>(std::tolower(c));
                   });
    return out;
}

std::string
baseOfDerived(const std::string& rank)
{
    std::string base = rank;
    while (!base.empty() &&
           std::isdigit(static_cast<unsigned char>(base.back()))) {
        base.pop_back();
    }
    return base;
}

} // namespace teaal::einsum
