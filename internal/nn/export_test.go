package nn

// PlanTestNet exposes the plan-step coverage net to the nn_test package.
var PlanTestNet = planTestNet
