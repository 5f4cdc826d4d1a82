"""English stop-word list.

The paper filters "stop words that contain little recognition values (e.g.,
a, for, and, not, etc)".  This module bundles a standard English stop-word
list (the classic SMART/Glasgow union trimmed to common function words) so the
library works fully offline.
"""

from __future__ import annotations

from typing import FrozenSet

ENGLISH_STOP_WORDS: FrozenSet[str] = frozenset(
    """
    a about above after again against all am an and any are aren't as at be
    because been before being below between both but by can cannot can't
    could couldn't did didn't do does doesn't doing don't down during each
    few for from further had hadn't has hasn't have haven't having he he'd
    he'll he's her here here's hers herself him himself his how how's i i'd
    i'll i'm i've if in into is isn't it it's its itself let's me more most
    mustn't my myself no nor not of off on once only or other ought our ours
    ourselves out over own same shan't she she'd she'll she's should
    shouldn't so some such than that that's the their theirs them themselves
    then there there's these they they'd they'll they're they've this those
    through to too under until up very was wasn't we we'd we'll we're we've
    were weren't what what's when when's where where's which while who who's
    whom why why's with won't would wouldn't you you'd you'll you're you've
    your yours yourself yourselves
    also among anyone anything became become becomes becoming beside besides
    beyond could done else elsewhere ever every everyone everything get gets
    got however indeed instead just like made make makes many may maybe
    meanwhile might mine moreover much must neither never nevertheless next
    none nothing now nowhere often one onto others otherwise per perhaps
    please put rather said say says seem seemed seeming seems several shall
    since six somehow someone something sometime sometimes somewhere still
    take takes ten thereafter thereby therefore therein thus together toward
    towards two upon us use used uses using via was way well went what
    whatever whence whenever whereas whereby wherein whether will within
    without yet
    """.split()
)
