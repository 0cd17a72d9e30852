from .canonical import net_equiv, struct_canon
from .formulas import dual, neg_o, neg_q, trans_type
from .net import Net
from .rewrite import NetBudgetExhausted, exp_step, full_nf, mult_nf
from .simulation import nets_of, simulation_check, soundness_check
from .translate import translate_derivation, translate_stack_derivation

__all__ = [
    "Net",
    "NetBudgetExhausted",
    "dual",
    "exp_step",
    "full_nf",
    "mult_nf",
    "neg_o",
    "neg_q",
    "net_equiv",
    "nets_of",
    "simulation_check",
    "soundness_check",
    "struct_canon",
    "trans_type",
    "translate_derivation",
    "translate_stack_derivation",
]
