"""The dialog act vocabulary, the slots each act carries and those a customer act echoes, and the
benchmark's task and split names, importable without the engine or the scoring code."""

TASKS = ("SPD", "RRU", "ACT", "RESPONSE", "RECOMMEND")
SPLIT_NAMES = ("train", "dev", "dev_test", "test_std")

SALESPERSON_ACTS = (
    "ASK_PREFERENCE",
    "EXCLUDE_PREFERENCE",
    "PROMPT_PREFERENCE",
    "GUESS_ATTRIBUTE_VALUE",
    "REVISE_ATTRIBUTE_VALUE",
    "DISPLAY_CANDIDATE_VALUES",
    "REFER_REGION",
    "RECOMMEND_ITEM",
)
# Each salesperson act is answered by exactly one customer act.
ACT_PAIRS = {
    "ASK_PREFERENCE": "ANSWER_PREFERENCE",
    "EXCLUDE_PREFERENCE": "NEGATE_PREFERENCE",
    "PROMPT_PREFERENCE": "RESPOND_PROMPT",
    "GUESS_ATTRIBUTE_VALUE": "RESPOND_ATTRIBUTE_VALUE",
    "REVISE_ATTRIBUTE_VALUE": "RESPOND_ATTRIBUTE_VALUE",
    "DISPLAY_CANDIDATE_VALUES": "CHOOSE_ATTRIBUTE_VALUE",
    "REFER_REGION": "JUDGE_REGION",
    "RECOMMEND_ITEM": "RESPOND_RECOMMENDATION",
}
ELICIT_ACTS = ("ASK_PREFERENCE", "EXCLUDE_PREFERENCE", "PROMPT_PREFERENCE")

# The slots each act carries, in table order: `engine.check_turn` checks the turns `realize` and
# `gold` read against it, and the realizer derives its template keys.
ACT_SLOTS = {
    "ASK_PREFERENCE": ("attribute",), "EXCLUDE_PREFERENCE": ("attribute",),
    "PROMPT_PREFERENCE": ("attribute", "concept_id"),
    "GUESS_ATTRIBUTE_VALUE": ("attribute", "value"), "REVISE_ATTRIBUTE_VALUE": ("attribute", "value"),
    "DISPLAY_CANDIDATE_VALUES": ("attribute", "values"),
    "REFER_REGION": ("region_label",), "RECOMMEND_ITEM": ("object_id",),
    "ANSWER_PREFERENCE": ("attribute", "concept_id"), "NEGATE_PREFERENCE": ("attribute", "concept_id"),
    "RESPOND_PROMPT": ("attribute", "concept_id", "accept"),
    "RESPOND_ATTRIBUTE_VALUE": ("attribute", "value", "accept"),
    "CHOOSE_ATTRIBUTE_VALUE": ("attribute", "value"),
    "JUDGE_REGION": ("region_label", "accept"), "RESPOND_RECOMMENDATION": ("accept",),
}
# The slots of ACT_SLOTS a customer turn does not store but reads from the salesperson turn it answers.
ECHOED_SLOTS = {"ANSWER_PREFERENCE": ("attribute",), "RESPOND_PROMPT": ("attribute", "concept_id"),
                "RESPOND_ATTRIBUTE_VALUE": ("attribute", "value"), "CHOOSE_ATTRIBUTE_VALUE": ("attribute",),
                "JUDGE_REGION": ("region_label",)}
