"""Prompt templates for the agent roles and for QA generation.

User templates are plain format strings; slots are {question}, {formula},
{context}, {feedback}, {answer}, {max_pairs}, {report}. System prompts are
used as-is and never passed through format(), since some contain literal
braces.
"""

EXPANSION_SYSTEM = """\
You are an expert at financial text understanding.
Given a user's question about a financial ratio in an annual report, think of which accounts will feed into that formula, and *only* return the complete formula as a whole—no explanations.
"""

EXPANSION_USER = "{question}"

EXPANSION_FEEDBACK_USER = """\
{question}

Missing components to cover:
{feedback}
"""

SOLVING_SYSTEM = """\
You are a helpful assistant that answers financial QA based on the provided annual report in Markdown form.
You should clearly show your data source through page_number and formula to justify each calculation.
Your final numerical answer must be rounded to two decimal places and enclosed in double curly braces {{}} with no extra text or units.
If the information is insufficient, put 0 inside the {{}}.

Given a user's question about a financial ratio in an annual report, think of which line items (accounts) will feed into that formula, and *only* return the complete formula as a whole-no explanations.
"""

SOLVING_USER = """\
Question: {question}
Expanded formula: {formula}

Retrieved report pages:
{context}
"""

EVALUATION_SYSTEM = """\
You are an expert assistant that inspects a generated answer against the question.
You have two tasks:
1) If the answer is missing any critical components needed to compute the numeric result, return a comma-separated list of exactly those missing components (e.g., 'net income', 'total assets'). For each missing component, also include common synonyms or variant phrasings that might appear in the report (e.g., for 'COGS': 'cost of goods sold', 'cost of sales').
2) If the answer is not using 'exactly' the same accounts as the question stated (e.g., 'Consolidated other assets' vs 'Condensed other assets'), return a comma-separated list of the exact account names mentioned in the question. For each incorrect account, also include common synonyms or variant phrasings that might appear in the report (e.g., for 'COGS': 'cost of goods sold', 'cost of sales').
If nothing is missing and the answer uses exactly the same accounts as in the question, reply with 'NONE'.
"""

EVALUATION_USER = """\
Question: {question}

Generated answer:
{answer}
"""

QA_GENERATION_TEMPLATE = """\
You are a seasoned financial analyst. Your task is to read a company's annual report (provided below in Markdown) and generate challenging, multi-page numerical reasoning questions and answers.
- For each QA pair, first **think step by step** about which line items you need and on which pages they appear.
- Show your chain-of-thought (labeled "Thought: ...") to justify each calculation.
- Then give the final answer in a clear formulaic layout.

### Examples
Q1: What is the Inventory turnover ratio in percentage of the company in 2002?
A1: Inventory turnover ratio = COGS cost of goods sold / average inventory = 4139/[(45+11)/2] = 147.82

Q2: What is the Debt Service Coverage Ratio (DSCR) ratio in percentage of the company in 2002?
A2: Debt Service Coverage Ratio (DSCR) ratio = EBITDA earnings before interest,taxes,depreciation and amortization/ (Interest Expense+Principal Repayments) = 17 / (11+0) = 1.55

Q3: What is the Altman Z-Score in percentage of the company in 2002?
A3: Altman Z-Score = 1.2*(Working Capital/Total Assets) + 1.4*(Retained Earnings/Total Assets) + 3.3*(EBITDA/Total Assets) + 0.6*(Market Value of Equity/Total Liabilities) + 1.0*(Sales/Total Assets) = 1.2x(3730/6298) + 1.4x(2325/6298) + 3.3x(17/6298) + 0.6x(4925/2203) + 1.0x(5742/6298) = 3.49

### Now: Generate **{max_pairs}** new QA pairs in this exact format, each requiring data from at least two different pages of the provided report.
Be sure to:
- Prepend each reasoning with "Thought:"
- Cite the page numbers in your chain-of-thought.
- Show each formula calculation step by step.
- Deliver the final answer as python code based on the formula under the concept of rounding to two decimal places.
- Run the code to get the final answer.
- Data must strictly come from *at least 2 to 3 different pages*.
- If the page is already used in the previous question, it is not allowed to be used again.
- Present your response in a strictly structured format through the json format below:
{{
  "id": "unique_id_for_this_qa_pair",
  "company": "Company Name",
  "year": "Year of the report",
  "question": "What is the ...?",
  "type": "If the data sources are from table, please answer 'table'; if the data sources are from text, please answer 'text'; if the data sources are from both table and text, please answer 'mixed'",
  "thoughts": "Thought: ...",
  "page_numbers": [1, 2, 3],
  "python_code": "Based on the formula under the concept of strictly rounding to two decimal places.",
  "answer": "Numerical answer here"
}}
IMPORTANT: Return only the raw JSON array—no Markdown fences!

### Report (sampled pages)
{report}
"""


def render_context(pages: list[tuple[int, str]]) -> str:
    """Render retrieved pages with explicit page_number markers."""
    blocks = []
    for page_number, text in pages:
        blocks.append(f"[page_number: {page_number}]\n{text.strip()}")
    return "\n\n".join(blocks)


def render_feedback(components: list[tuple[str, tuple[str, ...]]]) -> str:
    """One line per missing component with its synonyms."""
    lines = []
    for name, synonyms in components:
        if synonyms:
            lines.append(f"- {name} (synonyms: {', '.join(synonyms)})")
        else:
            lines.append(f"- {name}")
    return "\n".join(lines)
