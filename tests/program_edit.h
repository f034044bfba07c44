/**
 * @file
 * Test helper: edit the lowering behind a bound Program.  Lowerings are
 * shared and immutable, so tests that hand-mutate bytecode (to check the
 * verifier, the engine's screens or the analyses) edit a private copy
 * and re-point the Program at it; the cost rows stay as bound.
 */

#ifndef UFC_TESTS_PROGRAM_EDIT_H
#define UFC_TESTS_PROGRAM_EDIT_H

#include <memory>
#include <utility>

#include "compiler/bytecode.h"
#include "sim/accelerator.h"

namespace ufc {
namespace testutil {

/** `p` with its lowering replaced by a copy that `edit` modified. */
template <typename Fn>
compiler::Program
editLowering(compiler::Program p, Fn &&edit)
{
    auto lp = std::make_shared<compiler::LoweredProgram>(*p.lowered);
    edit(*lp);
    p.code = lp->code;
    p.lowered = std::move(lp);
    return p;
}

/** A hand-built lowering bound to the Table II UFC machine, exactly as
 *  UfcModel::compile binds the lowerings it makes. */
inline compiler::Program
bindUfc(compiler::LoweredProgram lp)
{
    return sim::UfcModel().bind(
        std::make_shared<const compiler::LoweredProgram>(std::move(lp)));
}

} // namespace testutil
} // namespace ufc

#endif // UFC_TESTS_PROGRAM_EDIT_H
